open Switchsim

type t = {
  plan : Fault_plan.t;
  sim : Simulator.t;
  stragglers : (int * int * int) array; (* (at, coflow, factor), by slot *)
  mutable next_straggler : int;
}

let sim t = t.sim

let plan t = t.plan

(* Shared by the simulator's validate hook and by {!Audit.feed}: the fault
   and topology constraints one slot must satisfy, independent of demand
   state.  The slot's capacity is derived here, in one place: each
   oversubscribed fabric's own core budget over its inter-rack transfers,
   and a degraded core's whole-slot budget over the core-counted ones
   (every transfer on a rack-less fabric, inter-rack transfers on a rack
   fabric). *)
let check_slot ~net ~plan ~slot transfers =
  let ports = Net.ports net and kf = Net.k net in
  (* every query below is at [slot]: scan only the events in force *)
  let plan = Fault_plan.make (Fault_plan.active_at plan ~slot) in
  let crossing = Array.make kf 0 in
  let rec scan counted = function
    | [] -> budgets counted 0
    | { Simulator.src; dst; fabric; _ } :: rest ->
      if src < 0 || src >= ports || dst < 0 || dst >= ports then
        Error (Printf.sprintf "slot %d: port out of range %d->%d" slot src dst)
      else if fabric < 0 || fabric >= kf then
        Error (Printf.sprintf "slot %d: fabric %d out of range" slot fabric)
      else if Fault_plan.fabric_down plan ~slot fabric then
        Error (Printf.sprintf "slot %d: fabric %d is down" slot fabric)
      else if Fault_plan.port_down plan ~slot src then
        Error (Printf.sprintf "slot %d: ingress %d is down" slot src)
      else if Fault_plan.port_down plan ~slot dst then
        Error (Printf.sprintf "slot %d: egress %d is down" slot dst)
      else if not (Fault_plan.link_usable plan ~slot ~src ~dst) then
        Error
          (Printf.sprintf "slot %d: link (%d, %d) degraded (period %d)" slot
             src dst
             (Fault_plan.link_period plan ~slot ~src ~dst))
      else
        match (Net.fabric_of net fabric).Net.rack_size with
        | None -> scan (counted + 1) rest
        | Some _ ->
          if Net.crosses_core net ~fabric ~src ~dst then begin
            crossing.(fabric) <- crossing.(fabric) + 1;
            scan (counted + 1) rest
          end
          else scan counted rest
  and budgets counted f =
    if f < kf then
      match Net.core_capacity net f with
      | Some cap when crossing.(f) > cap ->
        Error
          (Printf.sprintf
             "slot %d: %s%d inter-rack transfers exceed core capacity %d" slot
             (if kf = 1 then "" else Printf.sprintf "fabric %d: " f)
             crossing.(f) cap)
      | _ -> budgets counted (f + 1)
    else
      match Fault_plan.core_capacity plan ~slot with
      | Some cap when counted > cap ->
        Error
          (Printf.sprintf "slot %d: %d transfers exceed degraded capacity %d"
             slot counted cap)
      | _ -> Ok ()
  in
  scan 0 transfers

let create ?net ~plan ~ports demands =
  let net = match net with Some n -> n | None -> Net.single ~ports in
  Fault_plan.validate_exn ~fabrics:(Net.k net) ~ports
    ~coflows:(List.length demands) plan;
  (* delayed releases are known at admission time: fold them into the
     release dates before the simulator is built *)
  let demands =
    List.mapi
      (fun k (r, d) -> (r + Fault_plan.release_delay plan k, d))
      demands
  in
  let sim_cell = ref None in
  let validate transfers =
    match !sim_cell with
    | None -> Ok ()
    | Some sim -> check_slot ~net ~plan ~slot:(Simulator.now sim) transfers
  in
  let sim = Simulator.create ~validate ~net ~ports demands in
  sim_cell := Some sim;
  { plan;
    sim;
    stragglers = Array.of_list (Fault_plan.stragglers plan);
    next_straggler = 0;
  }

let tick t =
  let slot = Simulator.now t.sim in
  while
    t.next_straggler < Array.length t.stragglers
    && (let at, _, _ = t.stragglers.(t.next_straggler) in
        at <= slot)
  do
    let _, k, factor = t.stragglers.(t.next_straggler) in
    t.next_straggler <- t.next_straggler + 1;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~name:"straggler" ~cat:"fault" ~slot
        ~args:[ ("coflow", string_of_int k); ("factor", string_of_int factor) ]
        ();
    if not (Simulator.is_complete t.sim k) then begin
      (* collect first: the demand matrix must not grow mid-iteration *)
      let entries = ref [] in
      Simulator.iter_remaining t.sim k (fun i j v ->
          entries := (i, j, v) :: !entries);
      List.iter
        (fun (i, j, v) ->
          Simulator.add_demand t.sim k ~src:i ~dst:j ((factor - 1) * v))
        !entries
    end
  done
