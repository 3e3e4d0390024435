(* Tests for the Policy/Engine layer: golden equivalence against the
   pre-refactor slot loops (values captured at the parent commit on a fixed
   fb-like instance), jobs-count determinism of Engine.run_many, and the
   shared greedy-matching helper's invariants. *)

open Workload
open Core

let check_int = Alcotest.(check int)

(* The exact workload the pre-refactor goldens below were captured on. *)
let golden_instance =
  lazy
    (let st = Random.State.make [| 424242 |] in
     let inst = Fb_like.generate ~ports:10 ~coflows:40 st in
     let n = Instance.num_coflows inst in
     let wst = Random.State.make [| 424243 |] in
     Instance.with_weights inst (Weights.random_permutation wst n))

let check_result name ~twct ~slots ?matchings (r : Scheduler.result) =
  Alcotest.(check (float 0.0)) (name ^ " twct") twct r.Scheduler.twct;
  check_int (name ^ " slots") slots r.Scheduler.slots;
  match matchings with
  | Some m -> check_int (name ^ " matchings") m r.Scheduler.matchings
  | None -> ()

(* H_LP x case (d): the full pipeline (LP, ordering, grouping, BvN,
   backfilling) through the engine must reproduce the legacy loop. *)
let test_golden_hlp_case_d () =
  let inst = Lazy.force golden_instance in
  let lp = Lp_relax.solve_interval inst in
  let r =
    Scheduler.run ~case:Scheduler.Group_backfill inst (Ordering.by_lp lp)
  in
  check_result "hlp_d" ~twct:262389.0 ~slots:2347 ~matchings:113 r;
  Alcotest.(check (float 1e-6)) "hlp_d utilization" 0.265190
    r.Scheduler.utilization

let test_golden_baselines () =
  let inst = Lazy.force golden_instance in
  check_result "greedy_hrho" ~twct:150715.0 ~slots:1395
    (Baselines.greedy inst (Ordering.by_load_over_weight inst));
  check_result "fifo" ~twct:464505.0 ~slots:1390 (Baselines.fifo inst);
  check_result "round_robin" ~twct:319070.0 ~slots:1390
    (Baselines.round_robin inst);
  check_result "max_weight" ~twct:148734.0 ~slots:1401
    (Baselines.max_weight inst);
  check_result "sebf_madd" ~twct:155810.0 ~slots:1390
    (Baselines.sebf_madd inst)

let test_golden_online () =
  let inst = Lazy.force golden_instance in
  check_result "online wb" ~twct:150535.0 ~slots:1391
    (Online.run Online.Weighted_bottleneck inst);
  check_result "online wr" ~twct:150277.0 ~slots:1396
    (Online.run Online.Weighted_remaining inst);
  check_result "online fcfs" ~twct:464505.0 ~slots:1390
    (Online.run Online.Arrival_order inst)

let test_golden_decentralized () =
  let inst = Lazy.force golden_instance in
  check_result "dec sebf" ~twct:182210.0 ~slots:1462
    (Decentralized.run ~rounds:3 Decentralized.Local_sebf inst);
  check_result "dec fifo" ~twct:518380.0 ~slots:1429
    (Decentralized.run ~rounds:3 Decentralized.Local_fifo inst)

let test_golden_resilient () =
  let inst = Lazy.force golden_instance in
  let r = Resilient.run inst in
  Alcotest.(check (float 0.0)) "resilient twct" 151856.0 r.Resilient.twct;
  check_int "resilient slots" 1397 r.Resilient.slots;
  check_int "resilient replans" 1 r.Resilient.replans

(* ---------- run_many determinism ---------- *)

(* The same job list must produce identical results AND an identical
   merged slot-event stream at any job count. *)
let jobs_fixture () =
  let inst = Lazy.force golden_instance in
  let order = Ordering.by_load_over_weight inst in
  List.map
    (fun case () -> Scheduler.run ~case inst order)
    Scheduler.all_cases
  @ [ (fun () -> Baselines.fifo inst);
      (fun () -> Online.run Online.Weighted_bottleneck inst);
    ]

let run_at ~jobs =
  Obs.Events.set_enabled true;
  Obs.Events.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Events.reset ();
      Obs.Events.set_enabled false)
  @@ fun () ->
  let results = Engine.run_many ~jobs (jobs_fixture ()) in
  (results, Obs.Events.to_list ())

let test_run_many_jobs_invariant () =
  let r1, e1 = run_at ~jobs:1 in
  let r4, e4 = run_at ~jobs:4 in
  check_int "result count" (List.length r1) (List.length r4);
  List.iteri
    (fun i ((a : Scheduler.result), (b : Scheduler.result)) ->
      let name = Printf.sprintf "job %d" i in
      Alcotest.(check (float 0.0)) (name ^ " twct") a.Scheduler.twct
        b.Scheduler.twct;
      check_int (name ^ " slots") a.Scheduler.slots b.Scheduler.slots;
      check_int (name ^ " matchings") a.Scheduler.matchings
        b.Scheduler.matchings;
      Alcotest.(check (array int)) (name ^ " completions")
        a.Scheduler.completion b.Scheduler.completion)
    (List.combine r1 r4);
  check_int "event count" (List.length e1) (List.length e4);
  Alcotest.(check bool) "event streams identical" true (e1 = e4)

let test_run_many_rejects_bad_jobs () =
  try
    ignore (Engine.run_many ~jobs:0 [ (fun () -> ()) ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_run_many_reraises () =
  (* a failing job must re-raise at the join, at its own index *)
  try
    ignore
      (Engine.run_many ~jobs:2
         [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]);
    Alcotest.fail "expected Failure"
  with Failure m -> Alcotest.(check string) "message" "boom" m

(* ---------- greedy matching helper ---------- *)

let random_instance ~ports ~coflows seed =
  let st = Random.State.make [| seed |] in
  Synthetic.uniform ~ports ~coflows ~density:0.4 ~max_size:4 st

let prop_greedy_matching_valid_and_maximal =
  QCheck.Test.make ~name:"Policy.greedy_matching is a maximal matching"
    ~count:80
    QCheck.(triple (int_range 2 6) (int_range 1 6) (int_range 0 100_000))
    (fun (ports, coflows, seed) ->
      let inst = random_instance ~ports ~coflows seed in
      let sim =
        Switchsim.Simulator.create ~ports (Instance.demands inst)
      in
      let priority = Array.init coflows (fun k -> k) in
      let ts = Policy.greedy_matching sim ~priority in
      let src_used = Array.make ports false in
      let dst_used = Array.make ports false in
      List.iter
        (fun { Switchsim.Simulator.src; dst; coflow; _ } ->
          (* a matching: each port claimed at most once *)
          assert (not src_used.(src));
          assert (not dst_used.(dst));
          src_used.(src) <- true;
          dst_used.(dst) <- true;
          (* backed by real demand from a released coflow *)
          assert (Switchsim.Simulator.remaining_at sim coflow src dst > 0))
        ts;
      (* maximal: no free pair still has demand from a released, unfinished
         coflow *)
      Array.iter
        (fun k ->
          if
            Switchsim.Simulator.released sim k
            && not (Switchsim.Simulator.is_complete sim k)
          then
            Switchsim.Simulator.iter_remaining sim k (fun i j _ ->
                assert (src_used.(i) || dst_used.(j))))
        priority;
      true)

(* ---------- greedy kernel against a dense reference ---------- *)

(* The bitset kernel claims to be exactly the naive greedy: priority
   order, then ascending src, then the first free dst with demand; one
   sweep per fabric, fastest first; an entry never claimed on two
   fabrics in one slot; once a fabric's core budget is spent only
   rack-local pairs; under a fault plan no down port or fabric, a
   degraded link only on its duty cycle, and a degraded core's one budget
   over the core-counted transfers.  This reference spells that out entry
   by entry over dense boolean arrays and the plan's own per-slot queries,
   trusting nothing of the kernel's bitsets. *)
let reference_greedy ?(plan = Faults.Fault_plan.empty) ?(init = []) sim
    ~priority =
  let open Switchsim in
  let module P = Faults.Fault_plan in
  let m = Simulator.ports sim and net = Simulator.net sim in
  let kf = Simulator.num_fabrics sim in
  let slot = Simulator.now sim in
  let src_used = Array.make (kf * m) false in
  let dst_used = Array.make (kf * m) false in
  let core_left =
    Array.init kf (fun f ->
        Option.value (Net.core_capacity net f) ~default:max_int)
  in
  (* a degraded core: one budget over transfers on rack-less fabrics and
     inter-rack transfers on rack fabrics *)
  let plan_left =
    ref (Option.value (P.core_capacity plan ~slot) ~default:max_int)
  in
  let counted f ~src ~dst =
    (Net.fabric_of net f).Net.rack_size = None
    || Net.crosses_core net ~fabric:f ~src ~dst
  in
  let taken = Hashtbl.create 16 in
  let occupy { Simulator.src; dst; coflow; fabric = f } =
    src_used.((f * m) + src) <- true;
    dst_used.((f * m) + dst) <- true;
    if Net.crosses_core net ~fabric:f ~src ~dst then
      core_left.(f) <- core_left.(f) - 1;
    if counted f ~src ~dst then decr plan_left;
    Hashtbl.replace taken (coflow, src, dst) ()
  in
  List.iter occupy init;
  let out = ref init in
  Array.iter
    (fun f ->
      Array.iter
        (fun k ->
          if
            Simulator.released sim k
            && (not (Simulator.is_complete sim k))
            && not (P.fabric_down plan ~slot f)
          then
            for i = 0 to m - 1 do
              if not (src_used.((f * m) + i) || P.port_down plan ~slot i)
              then begin
                let admissible j =
                  Simulator.remaining_at sim k i j > 0
                  && (not dst_used.((f * m) + j))
                  && (not (P.port_down plan ~slot j))
                  && P.link_usable plan ~slot ~src:i ~dst:j
                  && (not (Hashtbl.mem taken (k, i, j)))
                  && (core_left.(f) > 0
                     || not (Net.crosses_core net ~fabric:f ~src:i ~dst:j))
                  && (!plan_left > 0 || not (counted f ~src:i ~dst:j))
                in
                let j = ref 0 in
                while !j < m && not (admissible !j) do
                  incr j
                done;
                if !j < m then begin
                  let tr =
                    { Simulator.src = i; dst = !j; coflow = k; fabric = f }
                  in
                  occupy tr;
                  out := tr :: !out
                end
              end
            done)
        priority)
    (Net.by_rate net);
  !out

(* one net per case: the paper's switch, k in {2, 3} non-blocking fabrics
   at mixed rates, a two-tier fabric with a small core, and a k = 2 mix
   of an oversubscribed fast fabric with a plain slow one *)
let random_net st ports =
  let module N = Switchsim.Net in
  let rate () = 1 + Random.State.int st 4 in
  let rack () = 1 + Random.State.int st ports in
  match Random.State.int st 4 with
  | 0 -> N.single ~ports
  | 1 -> N.uniform ~ports ~rates:(List.init (2 + Random.State.int st 2) (fun _ -> rate ()))
  | 2 ->
    N.two_tier ~ports ~rack_size:(rack ())
      ~core_capacity:(Random.State.int st 4)
  | _ ->
    N.make ~ports
      [ N.fabric ~rack_size:(rack ()) ~core_capacity:(Random.State.int st 3)
          (rate ());
        N.fabric (rate ());
      ]

(* half the cases run without faults; the rest draw a few events of every
   kind the matcher honours, with windows over the first slots the
   property steps through *)
let random_plan st ~ports ~fabrics =
  let module P = Faults.Fault_plan in
  if Random.State.bool st then None
  else
    let window () =
      let from_ = Random.State.int st 4 in
      (from_, from_ + 1 + Random.State.int st 5)
    in
    let port () = Random.State.int st ports in
    let event () =
      let from_, until = window () in
      match Random.State.int st 4 with
      | 0 -> P.Port_down { port = port (); from_; until }
      | 1 ->
        P.Link_degraded
          { src = port ();
            dst = port ();
            from_;
            until;
            period = 2 + Random.State.int st 3;
          }
      | 2 ->
        P.Core_degraded { from_; until; capacity = Random.State.int st 4 }
      | _ ->
        P.Fabric_down { fabric = Random.State.int st fabrics; from_; until }
    in
    Some (P.make (List.init (1 + Random.State.int st 5) (fun _ -> event ())))

let pp_transfers ts =
  String.concat " "
    (List.map
       (fun { Switchsim.Simulator.src; dst; coflow; fabric } ->
         Printf.sprintf "%d:%d->%d@%d" coflow src dst fabric)
       ts)

let prop_greedy_matches_reference =
  QCheck.Test.make
    ~name:"Policy.greedy_matching equals the dense entry-by-entry greedy"
    ~count:150
    QCheck.(triple (int_range 1 70) (int_range 1 6) (int_range 0 1_000_000))
    (fun (ports, coflows, seed) ->
      let st = Random.State.make [| seed |] in
      let density = if Random.State.bool st then 0.05 else 0.4 in
      let inst =
        Synthetic.uniform ~density ~max_size:3 ~ports ~coflows st
      in
      (* staggered releases, so some coflows are not yet serviceable *)
      let demands =
        List.map
          (fun (_, d) -> (Random.State.int st 3, d))
          (Instance.demands inst)
      in
      let net = random_net st ports in
      let plan = random_plan st ~ports ~fabrics:(Switchsim.Net.k net) in
      let sim = Switchsim.Simulator.create ~net ~ports demands in
      let priority = Array.init coflows (fun k -> k) in
      for k = coflows - 1 downto 1 do
        let r = Random.State.int st (k + 1) in
        let t = priority.(k) in
        priority.(k) <- priority.(r);
        priority.(r) <- t
      done;
      let reversed = Array.of_list (List.rev (Array.to_list priority)) in
      let same label expect got =
        if expect <> got then
          QCheck.Test.fail_reportf "%s: reference [%s] kernel [%s]" label
            (pp_transfers expect) (pp_transfers got)
      in
      let steps = ref 0 in
      while
        !steps < 8 && not (Switchsim.Simulator.all_complete sim)
      do
        incr steps;
        same "fresh"
          (reference_greedy ?plan sim ~priority)
          (Policy.greedy_matching ?plan sim ~priority);
        (* a partial slot: about half of another order's matching *)
        let init =
          List.filter
            (fun _ -> Random.State.bool st)
            (reference_greedy ?plan sim ~priority:reversed)
        in
        same "with init"
          (reference_greedy ?plan ~init sim ~priority)
          (Policy.greedy_matching ?plan ~init sim ~priority);
        Switchsim.Simulator.step sim
          (Policy.greedy_matching ?plan sim ~priority)
      done;
      true)

(* ---------- k=1 / rate=1 Net equivalence ---------- *)

(* The multi-fabric refactor claims [Net.single] recovers the paper's
   model bit for bit.  Prove it two ways: the pre-refactor goldens above
   re-run through an explicit single-fabric net, and a property over the
   same generator comparing the default path (which is itself Net.single
   under the hood — no legacy path survives) against explicit nets. *)

let run_on ?net inst policy =
  let ports = Instance.ports inst in
  let sim = Switchsim.Simulator.create ?net ~ports (Instance.demands inst) in
  Engine.run ~sim inst policy

let test_golden_through_explicit_net () =
  let inst = Lazy.force golden_instance in
  let net = Switchsim.Net.single ~ports:(Instance.ports inst) in
  let r =
    run_on ~net inst
      (Policy.of_priority ~describe:"greedy hrho"
         (Ordering.by_load_over_weight inst))
  in
  (* the same numbers the pre-refactor golden asserts above pin down *)
  Alcotest.(check (float 0.0)) "twct via Net.single" 150715.0 r.Engine.twct;
  check_int "slots via Net.single" 1395 r.Engine.slots

let prop_single_net_equivalence =
  QCheck.Test.make
    ~name:"k=1/rate=1 nets are decision-identical to the default path"
    ~count:40
    QCheck.(triple (int_range 2 6) (int_range 1 6) (int_range 0 100_000))
    (fun (ports, coflows, seed) ->
      let inst = random_instance ~ports ~coflows seed in
      let policy =
        Policy.of_priority ~describe:"greedy"
          (Ordering.by_load_over_weight inst)
      in
      let base = run_on inst policy in
      List.for_all
        (fun net ->
          let r = run_on ~net inst policy in
          r.Engine.twct = base.Engine.twct
          && r.Engine.slots = base.Engine.slots
          && r.Engine.completion = base.Engine.completion)
        [ Switchsim.Net.single ~ports;
          Switchsim.Net.uniform ~ports ~rates:[ 1 ];
          (* a non-blocking core budget is vacuous: still the same model *)
          Switchsim.Net.two_tier ~ports ~rack_size:ports ~core_capacity:ports;
        ])

let () =
  Alcotest.run "engine"
    [ ( "golden",
        [ Alcotest.test_case "H_LP case (d)" `Slow test_golden_hlp_case_d;
          Alcotest.test_case "baselines" `Quick test_golden_baselines;
          Alcotest.test_case "online" `Quick test_golden_online;
          Alcotest.test_case "decentralized" `Quick test_golden_decentralized;
          Alcotest.test_case "resilient" `Quick test_golden_resilient;
        ] );
      ( "run_many",
        [ Alcotest.test_case "jobs=1 equals jobs=4" `Quick
            test_run_many_jobs_invariant;
          Alcotest.test_case "rejects jobs=0" `Quick
            test_run_many_rejects_bad_jobs;
          Alcotest.test_case "re-raises job failure" `Quick
            test_run_many_reraises;
        ] );
      ( "policy",
        [ QCheck_alcotest.to_alcotest prop_greedy_matching_valid_and_maximal;
          QCheck_alcotest.to_alcotest prop_greedy_matches_reference;
        ]
      );
      ( "net-equivalence",
        [ Alcotest.test_case "goldens through Net.single" `Quick
            test_golden_through_explicit_net;
          QCheck_alcotest.to_alcotest prop_single_net_equivalence;
        ] );
    ]
