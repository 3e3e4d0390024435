open Workload
open Core
open Switchsim
open Faults

type row = {
  algo : string;
  twct : float;
  ratio : float;
  slots : int;
  seconds : float;
}

type leg = {
  l_label : string;
  l_rates : int list;
  l_bound : float;
  l_rows : row list;
}

type fault_result = {
  f_window : int * int;
  f_twct : float;
  f_slots : int;
  f_replans : int;
  f_completed : bool;
  f_audit_ok : bool;
  f_outage_clean : bool;
  f_served_during_outage : bool;
}

type t = { legs : leg list; fault : fault_result }

(* Same workload construction as E15: the first-filter fb-like trace with
   seeded random-permutation weights, so the hetero tables are directly
   comparable with the oversubscription sweep. *)
let instance (cfg : Config.t) =
  let inst =
    Instance.filter_m0 (Harness.base_instance cfg)
      (List.nth cfg.Config.filters 0)
  in
  let n = Instance.num_coflows inst in
  let wst = Random.State.make [| cfg.Config.seed; 0x4E7 |] in
  Instance.with_weights inst (Weights.random_permutation wst n)

(* [sum_k w_k (r_k + ceil (rho_k / S))]: a coflow's bottleneck port moves
   at most [S] units per slot even with every fabric to itself, so it
   needs [ceil (rho / S)] whole slots after release. *)
let isolation_bound ~total_rate inst =
  Array.fold_left
    (fun acc c ->
      let rho = Matrix.Mat.load c.Instance.demand in
      acc
      +. (c.Instance.weight
         *. float_of_int
              (c.Instance.release + ((rho + total_rate - 1) / total_rate))))
    0.0 (Instance.coflows inst)

let sweep =
  [ ("k=1", [ 1 ]);
    ("k=2 1:1", [ 1; 1 ]);
    ("k=2 4:1", [ 4; 1 ]);
    ("k=2 10:1", [ 10; 1 ]);
    ("k=4 1:1", [ 1; 1; 1; 1 ]);
    ("k=4 4:1", [ 4; 1; 1; 1 ]);
    ("k=4 10:1", [ 10; 1; 1; 1 ]);
  ]

let run_leg ~jobs ~label ~rates inst =
  let ports = Instance.ports inst in
  let net = Net.uniform ~ports ~rates in
  let bound = isolation_bound ~total_rate:(Net.total_rate net) inst in
  let contenders =
    List.map (fun (name, _, p) -> (name, p)) (Harness.lp_free_arena inst)
    @ [ ("Chen-hetero", Chen_hetero.policy ~net inst) ]
  in
  let results =
    Engine.run_many ~jobs
      (List.map
         (fun (name, policy) () ->
           let sim =
             Simulator.create ~net ~ports (Instance.demands inst)
           in
           (name, Engine.run ~sim inst policy))
         contenders)
  in
  let rows =
    List.map
      (fun (algo, r) ->
        { algo;
          twct = r.Engine.twct;
          ratio = (if bound > 0.0 then r.Engine.twct /. bound else Float.nan);
          slots = r.Engine.slots;
          seconds = r.Engine.seconds;
        })
      results
    |> List.sort (fun a b ->
           match compare a.twct b.twct with
           | 0 -> compare a.algo b.algo
           | c -> c)
  in
  List.iter
    (fun row ->
      if bound > 0.0 && row.twct +. 1e-6 < bound then
        failwith
          (Printf.sprintf
             "E21 %s: %s TWCT %.2f beats the rate-aware isolation bound %.2f \
              — bound or routing is wrong"
             label row.algo row.twct bound))
    rows;
  { l_label = label; l_rates = rates; l_bound = bound; l_rows = rows }

(* The fault leg: a 4:1 two-fabric net loses its fast fabric mid-run and
   the resilient loop (H_rho primary — no LP cost) re-plans the residual
   onto the survivor.  Certification is independent of the serving loop:
   the audit log is re-checked with per-fabric constraints and scanned
   for any transfer that rode the dead fabric inside the window. *)
let run_fault inst =
  let ports = Instance.ports inst in
  let net = Net.uniform ~ports ~rates:[ 4; 1 ] in
  let from_ = 5 and until = 5 + (2 * ports) in
  let plan = Fault_plan.make [ Fabric_down { fabric = 0; from_; until } ] in
  let config =
    { Resilient.default_config with Resilient.primary = Resilient.Rho }
  in
  let r = Resilient.run ~config ~net ~plan inst in
  let audit = r.Resilient.audit in
  let audit_ok =
    match Audit.check ~net ~plan audit with
    | Ok () -> true
    | Error _ -> false
  in
  let outage_clean = ref true and served = ref false in
  for s = from_ to min (until - 1) (Audit.num_slots audit - 1) do
    let { Audit.transfers; _ } = Audit.slot audit s in
    List.iter
      (fun { Simulator.fabric; _ } ->
        if fabric = 0 then outage_clean := false else served := true)
      transfers
  done;
  let completed = Array.for_all (fun c -> c >= 0) r.Resilient.completion in
  let fr =
    { f_window = (from_, until);
      f_twct = r.Resilient.twct;
      f_slots = r.Resilient.slots;
      f_replans = r.Resilient.replans;
      f_completed = completed;
      f_audit_ok = audit_ok;
      f_outage_clean = !outage_clean;
      f_served_during_outage = !served;
    }
  in
  if not completed then failwith "E21 fault leg: run did not complete";
  if not audit_ok then
    failwith
      (Printf.sprintf "E21 fault leg: audit rejected the log: %s"
         (match Audit.check ~net ~plan audit with
         | Error e -> e
         | Ok () -> "?"));
  if not !outage_clean then
    failwith "E21 fault leg: a transfer rode the downed fabric";
  if not !served then
    failwith "E21 fault leg: no service on the survivor during the outage";
  if fr.f_replans < 2 then
    failwith "E21 fault leg: outage boundaries did not trigger re-planning";
  fr

let run ?(jobs = 1) (cfg : Config.t) =
  Obs.Span.with_ "exp.hetero" @@ fun () ->
  let inst = instance cfg in
  let legs =
    List.map (fun (label, rates) -> run_leg ~jobs ~label ~rates inst) sweep
  in
  { legs; fault = run_fault inst }

let render_leg leg =
  Report.table
    ~title:
      (Printf.sprintf "E21 %s (rates [%s]) — ranked vs sum w(r+ceil(rho/S)) \
                       = %.2f"
         leg.l_label
         (String.concat ";" (List.map string_of_int leg.l_rates))
         leg.l_bound)
    ~header:[ "rank"; "algo"; "TWCT"; "ratio"; "slots"; "seconds" ]
    (List.mapi
       (fun i row ->
         [ string_of_int (i + 1);
           row.algo;
           Report.f2 row.twct;
           (if Float.is_nan row.ratio then "-" else Report.f4 row.ratio);
           string_of_int row.slots;
           Printf.sprintf "%.3f" row.seconds;
         ])
       leg.l_rows)

let render t =
  String.concat "\n" (List.map render_leg t.legs)
  ^ Printf.sprintf
      "\nfault leg (k=2 rates [4;1], fabric 0 down on [%d, %d)): TWCT \
       %.2f, %d slots, %d replans, completed=%b audit=%b outage-clean=%b \
       survivor-served=%b\n"
      (fst t.fault.f_window) (snd t.fault.f_window) t.fault.f_twct
      t.fault.f_slots t.fault.f_replans t.fault.f_completed t.fault.f_audit_ok
      t.fault.f_outage_clean t.fault.f_served_during_outage

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_nan f then "null" else Printf.sprintf "%.6g" f

let json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"experiment\":\"E21\",\"legs\":[";
  List.iteri
    (fun i leg ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"label\":\"%s\",\"rates\":[%s],\"bound\":%s,\"rows\":["
           (json_escape leg.l_label)
           (String.concat "," (List.map string_of_int leg.l_rates))
           (json_float leg.l_bound));
      List.iteri
        (fun j row ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"rank\":%d,\"algo\":\"%s\",\"twct\":%s,\"ratio\":%s,\"slots\":%d}"
               (j + 1) (json_escape row.algo) (json_float row.twct)
               (json_float row.ratio) row.slots))
        leg.l_rows;
      Buffer.add_string b "]}")
    t.legs;
  Buffer.add_string b
    (Printf.sprintf
       "],\"fault\":{\"window\":[%d,%d],\"twct\":%s,\"slots\":%d,\"replans\":%d,\"completed\":%b,\"audit_ok\":%b,\"outage_clean\":%b,\"served_during_outage\":%b}}\n"
       (fst t.fault.f_window) (snd t.fault.f_window)
       (json_float t.fault.f_twct) t.fault.f_slots t.fault.f_replans
       t.fault.f_completed t.fault.f_audit_ok t.fault.f_outage_clean
       t.fault.f_served_during_outage);
  Buffer.contents b
