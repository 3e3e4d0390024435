(* The repository benchmark: one workload per run, measured untraced (the
   end-to-end metrics) or traced (the per-layer split), every output
   checked.  The last line of standard output is one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   Usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1

   A run repeats "set up, then run one operation" until [--seconds] have
   passed (at least once) and reports medians over the repeats.  Each
   operation is checked on its own; [attempted] counts operations and
   [failed] those with any failed check.  README.md in this directory
   describes the workloads, the metrics and what each layer metric should
   move. *)

open Workload
module Sim = Switchsim.Simulator

(* ---- measurement helpers ---- *)

let now_ns = Obs.Clock.now_ns

let secs ns = float_of_int ns /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let counter name = Obs.Counter.value (Obs.Counter.make name)

(* Total and self seconds of the spans named [name], whatever path they were
   recorded under. *)
let span name =
  List.fold_left
    (fun ((total, self) as acc) (path, (st : Obs.Span.stats)) ->
      if path = name || String.ends_with ~suffix:("/" ^ name) path then
        (total +. secs st.Obs.Span.total_ns, self +. secs (Obs.Span.self_ns st))
      else acc)
    (0.0, 0.0) (Obs.Span.dump ())

let span_s name = fst (span name)

(* An int sample buffer that grows by doubling. *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 4096 0; len = 0 }

(* nearest rank, as [Obs.Histogram] *)
let percentile s p = Core.Metrics.percentile p (Array.sub s.data 0 s.len)

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

(* Cost of one clock read, for the traced runs' overhead estimate. *)
let clock_read_ns =
  lazy
    (let n = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now_ns ()))
     done;
     float_of_int (now_ns () - t0) /. float_of_int n)

(* ---- checks ---- *)

type checks = { mutable failures : string list }

let checks () = { failures = [] }

let check ck ok fmt =
  Printf.ksprintf (fun msg -> if not ok then ck.failures <- msg :: ck.failures) fmt

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* ---- one operation's outcome ---- *)

type outcome = {
  run_s : float;  (** wall time of the timed region *)
  slots : int;  (** simulated slots *)
  completed : int;  (** completed coflows *)
  twct_ratio : float;  (** TWCT over a lower bound computed here *)
  layers : (string * float) list;  (** traced runs only *)
  summary : string;  (** the outputs the pins are taken from *)
  failures : string list;
}

(* A workload's set-up builds the inputs (timed as [setup_s]) and returns
   the operation, which runs and checks itself. *)
type workload = {
  name : string;
  setup : seed:int -> traced:bool -> (unit -> outcome) * float;
      (** the operation and the input-generation seconds *)
}

(* ---- inputs ---- *)

(* Seed 0 keeps a trace's port labels; any other seed relabels its ports by
   a permutation drawn from the seed.  A relabeled trace asks for the same
   work (the same coflows, loads and bounds) while every port-indexed scan
   visits it in another order, so runs at different seeds measure the same
   amount of work on different inputs.  Every seed, 0 included, builds a
   fresh copy, so set-up costs the same at every seed. *)
let relabel_ports ~seed inst =
  let m = Instance.ports inst in
  let perm = Array.init m Fun.id in
  if seed <> 0 then begin
    let st = Random.State.make [| seed; 0x9e7 |] in
    for i = m - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done
  end;
  Instance.make ~ports:m
    (Array.to_list
       (Array.map
          (fun (c : Instance.coflow) ->
            let d = Matrix.Mat.make m in
            Matrix.Mat.iter_nonzero
              (fun i j v -> Matrix.Mat.set d perm.(i) perm.(j) v)
              c.Instance.demand;
            { c with Instance.demand = d })
          (Instance.coflows inst)))

(* ---- hrho: greedy H_rho at the paper's scale ---- *)

let hrho_ports = 150

let hrho_coflows = 526

(* Results pinned for the default and the held-out seed of each workload
   (README.md); other seeds are checked against the invariants only.
   (rates, seed) -> (TWCT, slots) *)
let hrho_pins =
  [ (([ 1 ], 0), (9_114_453., 128_250));
    (([ 1 ], 97), (9_113_533., 128_250));
    (([ 4; 2; 1; 1 ], 0), (1_196_554., 16_619));
    (([ 4; 2; 1; 1 ], 97), (1_196_051., 16_597));
  ]

(* Per coflow, r + ceil(rho / S) with S the aggregate rate: no coflow can
   finish before its busiest port drains at full speed on every fabric at
   once.  Computed from the demands alone. *)
let isolation_bounds inst ~rate =
  let m = Instance.ports inst in
  Array.map
    (fun (c : Instance.coflow) ->
      let rows = Array.make m 0 and cols = Array.make m 0 in
      Matrix.Mat.iter_nonzero
        (fun i j v ->
          rows.(i) <- rows.(i) + v;
          cols.(j) <- cols.(j) + v)
        c.Instance.demand;
      let rho = max (Array.fold_left max 0 rows) (Array.fold_left max 0 cols) in
      c.Instance.release + ((rho + rate - 1) / rate))
    (Instance.coflows inst)

(* The greedy policy of [Baselines.greedy_policy], with the calls into
   [Policy.greedy_matching] and [Policy.skip_bound] timed from here. *)
type probe = {
  match_ns : samples;
  mutable skip_ns : int;
  mutable transfers : int;
}

let probed_greedy probe order =
  let decide sim ~max_n =
    let t0 = now_ns () in
    let transfers = Core.Policy.greedy_matching sim ~priority:order in
    let t1 = now_ns () in
    let n = Core.Policy.skip_bound sim transfers ~max_n in
    let t2 = now_ns () in
    push probe.match_ns (t1 - t0);
    probe.skip_ns <- probe.skip_ns + (t2 - t1);
    probe.transfers <- probe.transfers + List.length transfers;
    (transfers, n)
  in
  Core.Policy.make ~describe:"greedy (probed)" (fun _ ->
      Core.Policy.stepper ~next_batch:decide (fun sim ->
          Core.Policy.greedy_matching sim ~priority:order))

let hrho ~rates ~seed ~traced =
  let g0 = now_ns () in
  let inst =
    relabel_ports ~seed
      (Fb_like.generate ~ports:hrho_ports ~coflows:hrho_coflows
         (Random.State.make [| 18 |]))
  in
  let generate_s = secs (now_ns () - g0) in
  let net =
    match rates with
    | [ 1 ] -> None
    | rates -> Some (Switchsim.Net.uniform ~ports:hrho_ports ~rates)
  in
  let sim = Sim.create ?net ~ports:hrho_ports (Instance.demands inst) in
  let rate = List.fold_left ( + ) 0 rates in
  let op () =
    let ck = checks () in
    let probe = { match_ns = samples (); skip_ns = 0; transfers = 0 } in
    let steps0 = counter "sim.batch_steps"
    and units0 = counter "sim.units_moved" in
    let gc0 = Gc.minor_words () in
    let t0 = now_ns () in
    let order = Core.Ordering.by_load_over_weight inst in
    let t1 = now_ns () in
    let policy =
      if traced then probed_greedy probe order
      else Core.Baselines.greedy_policy order
    in
    let t2 = now_ns () in
    let r = Core.Engine.run ~sim inst policy in
    let t3 = now_ns () in
    let run_ns = t3 - t0 in
    let minor_words = Gc.minor_words () -. gc0 in
    let decisions = counter "sim.batch_steps" - steps0 in
    (* outputs, re-derived from the inputs *)
    let n = Instance.num_coflows inst in
    check ck (Core.Ordering.is_permutation n order) "order is not a permutation";
    let weights = Instance.weights inst in
    let bounds = isolation_bounds inst ~rate in
    let twct = ref 0.0 and bound = ref 0.0 and last = ref 0 in
    Array.iteri
      (fun k c ->
        check ck (Sim.is_complete sim k) "coflow %d unfinished" k;
        check ck (c >= bounds.(k)) "coflow %d completes at %d, below its bound %d"
          k c bounds.(k);
        twct := !twct +. (weights.(k) *. float_of_int c);
        bound := !bound +. (weights.(k) *. float_of_int bounds.(k));
        last := max !last c)
      r.Core.Engine.completion;
    check ck (close !twct r.Core.Engine.twct) "TWCT %.0f, re-summed %.0f"
      r.Core.Engine.twct !twct;
    check ck (!last = r.Core.Engine.slots) "makespan %d, last completion %d"
      r.Core.Engine.slots !last;
    check ck
      (counter "sim.units_moved" - units0 = Instance.total_units inst)
      "units moved %d, demand %d"
      (counter "sim.units_moved" - units0)
      (Instance.total_units inst);
    (match List.assoc_opt (rates, seed) hrho_pins with
    | Some (twct, slots) ->
      check ck (r.Core.Engine.twct = twct) "TWCT %.0f, pinned %.0f"
        r.Core.Engine.twct twct;
      check ck (r.Core.Engine.slots = slots) "slots %d, pinned %d"
        r.Core.Engine.slots slots
    | None -> ());
    let layers =
      if not traced then []
      else begin
        let calls = probe.match_ns.len in
        check ck (calls = decisions)
          "self-test: %d decide calls, sim.batch_steps moved %d" calls decisions;
        let match_ns = ref 0 in
        for i = 0 to calls - 1 do
          match_ns := !match_ns + probe.match_ns.data.(i)
        done;
        let order_s = secs (t1 - t0)
        and match_s = secs !match_ns
        and skip_s = secs probe.skip_ns in
        let loop_s = r.Core.Engine.seconds in
        let commit_s = loop_s -. match_s -. skip_s in
        let run_s = secs run_ns in
        (* building the policy, and Engine.run outside its own loop clock *)
        let residual = run_s -. order_s -. loop_s in
        check ck (commit_s >= 0.0) "self-test: decide time exceeds the loop";
        (* the engine's clock against the benchmark's, around the same call *)
        let call_s = secs (t3 - t2) in
        check ck
          (loop_s <= call_s && residual >= 0.0 && residual <= 0.01 *. run_s)
          "self-test: Engine.run's loop took %.6f s of the %.6f s call; \
           %.6f s of the %.6f s run is in no layer"
          loop_s call_s residual run_s;
        let fd = float_of_int (max 1 decisions) in
        let timer_ns = 3.0 *. float_of_int calls *. Lazy.force clock_read_ns in
        [ ("ordering.order_s", order_s);
          ("policy.match_s", match_s);
          ("policy.match_calls", float_of_int calls);
          ( "policy.match_us_p50",
            float_of_int (percentile probe.match_ns 0.50) /. 1e3 );
          ( "policy.match_us_p99",
            float_of_int (percentile probe.match_ns 0.99) /. 1e3 );
          ("policy.skip_bound_s", skip_s);
          ("policy.transfers_per_decision", float_of_int probe.transfers /. fd);
          ("gc.minor_words_per_decision", minor_words /. fd);
          ("sim.commit_s", commit_s);
          ("sim.decisions", float_of_int decisions);
          ("sim.slots_per_decision", float_of_int r.Core.Engine.slots /. fd);
          ("sim.decision_us", run_s *. 1e6 /. fd);
          ("trace.run_s", run_s);
          ("trace.residual_s", residual);
          ("trace.overhead_frac", timer_ns /. float_of_int run_ns);
        ]
      end
    in
    { run_s = secs run_ns;
      slots = r.Core.Engine.slots;
      completed = n;
      twct_ratio = r.Core.Engine.twct /. !bound;
      layers;
      summary =
        Printf.sprintf "TWCT %.0f over %d slots" r.Core.Engine.twct
          r.Core.Engine.slots;
      failures = ck.failures;
    }
  in
  (op, generate_s)

(* ---- table1: the paper's 12-algorithm grid ---- *)

(* The sum of the 72 entries' TWCT at [Config.default]. *)
let table1_pin = 1_250_312_382.

(* [Experiments.Harness.all_blocks ~jobs:1 Config.default], run as it is.
   The harness takes only a configuration and generates its trace from the
   configuration's seed, and other trace seeds ask for very different work
   (run_s IQR/median 0.38 over ten of them), so every seed runs the default
   configuration and is held to its pin.  The harness has no set-up of its
   own to time: set-up generates the configuration's trace, which the
   harness generates again at the start of each block. *)
let table1 ~seed:_ ~traced =
  let cfg = Experiments.Config.default in
  let g0 = now_ns () in
  ignore (Experiments.Harness.base_instance cfg);
  let generate_s = secs (now_ns () - g0) in
  let op () =
    let ck = checks () in
    let c0 name = (name, counter name) in
    let before =
      List.map c0
        [ "lp.pivots"; "lp.refactors"; "bvn.matchings"; "sched.matchings_built";
          "sched.matchings_reused"; "sim.slots"; "sim.batched_slots" ]
    in
    let delta name = counter name - List.assoc name before in
    Obs.Span.reset_all ();
    let gc0 = Gc.minor_words () in
    let t0 = now_ns () in
    let blocks = Experiments.Harness.all_blocks ~jobs:1 cfg in
    let run_ns = now_ns () - t0 in
    let minor_words = Gc.minor_words () -. gc0 in
    let slots = ref 0 and completed = ref 0 and ratios = ref [] and sum = ref 0.0 in
    let pivots = ref 0 and refactors = ref 0 in
    let open Experiments.Harness in
    List.iter
      (fun b ->
        let bound = b.lp.Core.Lp_relax.lower_bound in
        let n = Instance.num_coflows b.instance in
        pivots := !pivots + b.lp.Core.Lp_relax.iterations;
        refactors := !refactors + b.lp.Core.Lp_relax.refactors;
        check ck (n > 0 && bound > 0.0) "filter %d: %d coflows, LP bound %g"
          b.filter n bound;
        List.iter
          (fun { order_name; case; result = r } ->
            check ck
              (r.Core.Engine.twct >= bound *. (1.0 -. 1e-9))
              "filter %d %s (%s): TWCT %.1f beats the LP bound %.1f" b.filter
              order_name (Core.Scheduler.case_name case) r.Core.Engine.twct bound;
            check ck (Array.length r.Core.Engine.completion = n)
              "filter %d: %d completions for %d coflows" b.filter
              (Array.length r.Core.Engine.completion) n;
            slots := !slots + r.Core.Engine.slots;
            completed := !completed + n;
            sum := !sum +. r.Core.Engine.twct;
            ratios := (r.Core.Engine.twct /. bound) :: !ratios)
          b.entries)
      blocks;
    check ck (List.length !ratios = 72) "%d grid entries" (List.length !ratios);
    check ck (!sum = table1_pin) "TWCT sum %.1f, pinned %.1f" !sum table1_pin;
    let layers =
      if not traced then []
      else begin
        check ck (delta "lp.pivots" = !pivots)
          "self-test: LP results report %d pivots, lp.pivots moved %d" !pivots
          (delta "lp.pivots");
        check ck (delta "lp.refactors" = !refactors)
          "self-test: LP results report %d refactors, lp.refactors moved %d"
          !refactors (delta "lp.refactors");
        let run_s = secs run_ns in
        (* the harness's own spans, nested as block > lp_solve > lp.solve
           and block > schedule > bvn.schedule *)
        let block_s = span_s "harness.block"
        and lp_call_s = span_s "harness.lp_solve"
        and schedule_s = span_s "harness.schedule" in
        let lp_s = span_s "lp.solve" and bvn_s = span_s "bvn.schedule" in
        let sched_self = schedule_s -. bvn_s in
        (* the LP model build around the solver, the orders, the per-block
           trace regeneration and filtering *)
        let residual = run_s -. lp_s -. bvn_s -. sched_self in
        check ck
          (lp_s <= lp_call_s && bvn_s <= schedule_s
          && lp_call_s +. schedule_s <= block_s)
          "self-test: a nested span exceeds the span around it";
        check ck
          (block_s <= run_s && block_s >= 0.99 *. run_s)
          "self-test: the harness.block spans cover %.4f s of the %.4f s timed"
          block_s run_s;
        let built = delta "sched.matchings_built"
        and reused = delta "sched.matchings_reused" in
        let decisions = delta "sim.slots" - delta "sim.batched_slots" in
        let fd = float_of_int (max 1 decisions) in
        [ ("lp.solve_s", lp_s);
          ("lp.pivots", float_of_int (delta "lp.pivots"));
          ("lp.refactors", float_of_int (delta "lp.refactors"));
          ("bvn.schedule_s", bvn_s);
          ("bvn.matchings", float_of_int (delta "bvn.matchings"));
          ("sched.self_s", sched_self);
          ( "sched.matchings_reused_frac",
            float_of_int reused /. float_of_int (max 1 (built + reused)) );
          ("gc.minor_words_per_decision", minor_words /. fd);
          ("sim.decisions", float_of_int decisions);
          ("sim.slots_per_decision", float_of_int !slots /. fd);
          ("sim.decision_us", run_s *. 1e6 /. fd);
          ("trace.run_s", run_s);
          ("trace.residual_s", residual);
          (* the benchmark reads the clock twice; the spans are always on *)
          ("trace.overhead_frac", 2.0 *. Lazy.force clock_read_ns /. float_of_int run_ns);
        ]
      end
    in
    { run_s = secs run_ns;
      slots = !slots;
      completed = !completed;
      twct_ratio = median !ratios;
      layers;
      summary = Printf.sprintf "the 72 TWCTs sum to %.0f" !sum;
      failures = ck.failures;
    }
  in
  (op, generate_s)

(* ---- soak: the long-lived service under faults ---- *)

let soak_coflows = 80_000

(* seed -> decision fingerprint *)
let soak_pins = [ (1, "065060ab18114575"); (97, "0674b5c0c265e54b") ]

let soak ~seed ~traced =
  let cfg =
    { Service.Soak.default_config with
      Service.Soak.coflows = soak_coflows;
      plan_seed = seed;
    }
  in
  (* What [Service.Soak.run] does before its loop: validate the
     configuration and open the arrival source.  The loop draws the
     arrivals as it goes, inside the timed run. *)
  let g0 = now_ns () in
  Service.Epoch_loop.validate_config cfg.Service.Soak.loop;
  ignore
    (Service.Arrivals.create ?params:cfg.Service.Soak.params
       ~random_weights:cfg.Service.Soak.random_weights
       ~ports:(Service.Soak.ports cfg) ~seed:cfg.Service.Soak.seed
       cfg.Service.Soak.process);
  let generate_s = secs (now_ns () - g0) in
  let op () =
    let ck = checks () in
    let c0 name = (name, counter name) in
    let before =
      List.map c0
        [ "lp.pivots"; "lp.refactors"; "service.epochs"; "service.idle_jumps";
          "service.audited_slots" ]
    in
    let delta name = counter name - List.assoc name before in
    Obs.Span.reset_all ();
    let epoch_ns = samples () in
    let last = ref 0 in
    let observer =
      if traced then
        Some
          (fun (_ : Service.Epoch_loop.epoch_view) ->
            let t = now_ns () in
            push epoch_ns (t - !last);
            last := t)
      else None
    in
    let t0 = now_ns () in
    last := t0;
    let report = Service.Soak.run ?observer cfg in
    let run_ns = now_ns () - t0 in
    let s = report.Service.Soak.stats in
    let open Service.Epoch_loop in
    List.iter
      (fun (g : Service.Soak.gate) ->
        check ck false "gate %s: %s" g.Service.Soak.gate
          (Option.value ~default:"" g.Service.Soak.failure))
      (Service.Soak.failed report);
    check ck (s.arrived = soak_coflows) "%d arrivals of %d" s.arrived soak_coflows;
    check ck (s.completed = s.admitted) "%d completed of %d admitted" s.completed
      s.admitted;
    check ck
      (s.admitted + s.rejected_queue + s.rejected_deadline = s.arrived)
      "admission does not account for every arrival";
    check ck (s.twct >= s.bound_sum && s.bound_sum > 0.0)
      "TWCT %.0f against the bound %.0f" s.twct s.bound_sum;
    (match List.assoc_opt seed soak_pins with
    | Some fp -> check ck (s.fingerprint = fp) "fingerprint %s, pinned %s" s.fingerprint fp
    | None -> ());
    let layers =
      if not traced then []
      else begin
        check ck
          (epoch_ns.len = s.epochs && delta "service.epochs" = s.epochs)
          "self-test: %d observer calls, %d epochs, service.epochs moved %d"
          epoch_ns.len s.epochs (delta "service.epochs");
        check ck
          (delta "service.audited_slots" = s.audited_slots)
          "self-test: %d audited slots, service.audited_slots moved %d"
          s.audited_slots (delta "service.audited_slots");
        check ck
          (s.lp_failures > 0 || delta "lp.pivots" = s.lp_iterations)
          "self-test: %d pivots reported, lp.pivots moved %d" s.lp_iterations
          (delta "lp.pivots");
        let run_s = secs run_ns in
        let epoch_s, serve_s = span "service.epoch" in
        let solve_s = span_s "service.solve" in
        let residual = run_s -. serve_s -. solve_s in
        check ck (close epoch_s (serve_s +. solve_s))
          "self-test: epoch children other than service.solve";
        check ck (residual >= 0.0) "self-test: layers exceed run_s";
        let timer_ns = float_of_int epoch_ns.len *. Lazy.force clock_read_ns in
        [ ("lp.solve_s", span_s "lp.solve");
          ("lp.pivots", float_of_int (delta "lp.pivots"));
          ("lp.refactors", float_of_int (delta "lp.refactors"));
          ("service.solve_s", solve_s);
          ("service.serve_s", serve_s);
          ("service.epochs", float_of_int s.epochs);
          ("service.idle_jumps", float_of_int (delta "service.idle_jumps"));
          ( "service.epoch_us_p50",
            float_of_int (percentile epoch_ns 0.50) /. 1e3 );
          ( "service.epoch_us_p99",
            float_of_int (percentile epoch_ns 0.99) /. 1e3 );
          ("service.wait_p99_slots", float_of_int s.wait_p99);
          ( "service.rejected_frac",
            float_of_int (s.rejected_queue + s.rejected_deadline)
            /. float_of_int (max 1 s.arrived) );
          ("audit.slots", float_of_int s.audited_slots);
          ("trace.run_s", run_s);
          ("trace.residual_s", residual);
          ("trace.overhead_frac", timer_ns /. float_of_int run_ns);
        ]
      end
    in
    { run_s = secs run_ns;
      slots = s.slots;
      completed = s.completed;
      twct_ratio = s.twct /. s.bound_sum;
      layers;
      summary = "fingerprint " ^ s.fingerprint;
      failures = ck.failures;
    }
  in
  (op, generate_s)

let workloads =
  [ { name = "hrho_k1_150x526"; setup = hrho ~rates:[ 1 ] };
    { name = "hrho_k4_150x526"; setup = hrho ~rates:[ 4; 2; 1; 1 ] };
    { name = "table1_default"; setup = table1 };
    { name = "soak_faults"; setup = soak };
  ]

(* ---- metrics ---- *)

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("slots_per_s", "1/s");
    ("coflows_per_s", "1/s"); ("twct_ratio", "ratio"); ("peak_heap_mb", "MB") ]

(* Every per-layer metric, reported on every workload; a layer the workload
   does not use reads 0. *)
let per_layer =
  [ ("ordering.order_s", "s"); ("policy.match_s", "s");
    ("policy.match_calls", "count"); ("policy.match_us_p50", "us");
    ("policy.match_us_p99", "us"); ("policy.skip_bound_s", "s");
    ("policy.transfers_per_decision", "ratio");
    ("gc.minor_words_per_decision", "words"); ("sim.commit_s", "s");
    ("sim.decisions", "count"); ("sim.slots_per_decision", "ratio");
    ("sim.decision_us", "us"); ("bvn.schedule_s", "s");
    ("bvn.matchings", "count"); ("sched.self_s", "s");
    ("sched.matchings_reused_frac", "ratio"); ("lp.solve_s", "s");
    ("lp.pivots", "count"); ("lp.refactors", "count");
    ("service.solve_s", "s"); ("service.serve_s", "s");
    ("service.epochs", "count"); ("service.idle_jumps", "count");
    ("service.epoch_us_p50", "us"); ("service.epoch_us_p99", "us");
    ("service.wait_p99_slots", "slots"); ("service.rejected_frac", "ratio");
    ("audit.slots", "count"); ("workload.generate_s", "s");
    ("trace.run_s", "s"); ("trace.residual_s", "s");
    ("trace.overhead_frac", "ratio") ]

(* Set-up is repeated until there are [min_setups] samples and
   [min_setup_s] seconds of them (capped at [max_setups]), so that a set-up
   of a few microseconds still yields a steady median. *)
let min_setups = 5

let min_setup_s = 1.0

let max_setups = 10_000

let run w ~seed ~seconds ~traced =
  let setups = ref [] and generates = ref [] and outcomes = ref [] in
  let n_setups = ref 0 and setup_total = ref 0.0 in
  let set_up () =
    let t0 = now_ns () in
    let op, generate_s = w.setup ~seed ~traced in
    let dt = secs (now_ns () - t0) in
    setups := dt :: !setups;
    generates := generate_s :: !generates;
    incr n_setups;
    setup_total := !setup_total +. dt;
    op
  in
  let peak_mb = ref 0.0 in
  let start = now_ns () in
  let rec loop () =
    let op = set_up () in
    outcomes := op () :: !outcomes;
    (* the heap peak of one set-up and operation: later repeats, whose
       number depends on the host's speed, must not move it *)
    if !peak_mb = 0.0 then
      peak_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0;
    if secs (now_ns () - start) < seconds then loop ()
  in
  loop ();
  while
    !n_setups < min_setups
    || (!setup_total < min_setup_s && !n_setups < max_setups)
  do
    let (_ : unit -> outcome) = set_up () in
    ()
  done;
  let outcomes = List.rev !outcomes in
  let med f = median (List.map f outcomes) in
  let run_s = med (fun o -> o.run_s) in
  let metrics =
    if not traced then
      [ ("setup_s", median !setups);
        ("run_s", run_s);
        ("slots_per_s", med (fun o -> float_of_int o.slots /. o.run_s));
        ("coflows_per_s", med (fun o -> float_of_int o.completed /. o.run_s));
        ("twct_ratio", med (fun o -> o.twct_ratio));
        ("peak_heap_mb", !peak_mb);
      ]
    else
      List.map
        (fun (name, _) ->
          if name = "workload.generate_s" then (name, median !generates)
          else
            ( name,
              med (fun o -> Option.value ~default:0.0 (List.assoc_opt name o.layers)) ))
        per_layer
  in
  (outcomes, metrics)

(* ---- command line and output ---- *)

let usage =
  "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let fail msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail (Printf.sprintf "%s: not an integer: %S" name s)
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg "--seconds" v); parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | arg :: _ -> fail (Printf.sprintf "unexpected argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t >= 1 -> (s, t, tr)
    | _ -> fail "--seed, --seconds (>= 1) and --trace are required"
  in
  let outcomes, metrics = run w ~seed ~seconds:(float_of_int seconds) ~traced in
  let units = if traced then per_layer else end_to_end in
  let failed = List.filter (fun o -> o.failures <> []) outcomes in
  List.iteri
    (fun i o ->
      Printf.printf "operation %d: %s\n" i o.summary;
      List.iter (fun f -> Printf.printf "check failed (operation %d): %s\n" i f)
        (List.rev o.failures))
    outcomes;
  Printf.printf "workload %s, seed %d, %s, %d operation(s)\n" w.name seed
    (if traced then "traced" else "untraced") (List.length outcomes);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-32s %14.6g %s\n" name v (List.assoc name units))
    metrics;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = [] && finite) (List.length outcomes) (List.length failed)
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
              (List.assoc name units))
          metrics))
