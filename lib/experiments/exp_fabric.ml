open Workload
open Core

type row = {
  label : string;
  core_capacity : int;
  twct : float;
  makespan : int;
  utilization : float;
}

let run ?(jobs = 1) (cfg : Config.t) =
  let inst =
    Instance.filter_m0 (Harness.base_instance cfg)
      (List.nth cfg.Config.filters 0)
  in
  let n = Instance.num_coflows inst in
  let wst = Random.State.make [| cfg.Config.seed; 0xFAB |] in
  let inst = Instance.with_weights inst (Weights.random_permutation wst n) in
  let ports = Instance.ports inst in
  let rack_size = max 1 (ports / 6) in
  let priority = Ordering.by_load_over_weight inst in
  let sweep =
    [ ("non-blocking", ports);
      ("2:1 oversubscribed", max 1 (ports / 2));
      ("4:1 oversubscribed", max 1 (ports / 4));
      ("10:1 oversubscribed", max 1 (ports / 10));
    ]
  in
  (* each sweep point is an independent event-driven simulation on a
     two-tier net — one engine job each *)
  Engine.run_many ~jobs
    (List.map
       (fun (label, core_capacity) () ->
         let net = Switchsim.Net.two_tier ~ports ~rack_size ~core_capacity in
         let sim =
           Switchsim.Simulator.create ~net ~ports (Instance.demands inst)
         in
         let policy =
           Policy.of_priority ~describe:("fabric " ^ label) priority
         in
         let r = Engine.run ~sim inst policy in
         { label;
           core_capacity;
           twct = r.Engine.twct;
           makespan = r.Engine.slots;
           utilization = r.Engine.utilization;
         })
       sweep)

let render ?jobs cfg =
  let rows = run ?jobs cfg in
  Report.table
    ~title:
      "Oversubscribed fabric: capacity-aware greedy (H_rho priority), racks \
       of ports/6, core capacity swept from non-blocking to 10:1"
    ~header:
      [ "core"; "capacity (units/slot)"; "TWCT"; "makespan"; "utilization" ]
    (List.map
       (fun r ->
         [ r.label;
           string_of_int r.core_capacity;
           Report.f2 r.twct;
           string_of_int r.makespan;
           Report.pct r.utilization;
         ])
       rows)
