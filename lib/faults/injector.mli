(** Wires a {!Fault_plan} into a {!Switchsim.Simulator}.

    The injector owns two jobs:
    - {b enforcement}: the simulator is created with a [validate] hook that
      rejects any slot using a dead port or fabric, a degraded link off its
      duty cycle, or more core transfers than the slot's capacity allows
      ({!check_slot}) — so a policy cannot cheat the faults any more than
      it can cheat the matching constraints;
    - {b the fault clock}: {!tick}, called once per slot before the policy,
      fires due straggler events by growing remaining demand in place
      (release delays are folded into the release dates at creation).

    Fault-aware service is [Core.Policy.greedy_matching ~plan], which only
    claims pairs this injector's hook accepts; any other per-slot policy
    can run against any plan too, with the hook arbitrating. *)

type t

val create :
  ?net:Switchsim.Net.t ->
  plan:Fault_plan.t ->
  ports:int ->
  (int * Matrix.Mat.t) list ->
  t
(** Build the faulted simulator on [net] (default [Net.single ~ports], the
    paper's switch).  The plan may contain {!Fault_plan.Fabric_down}
    events for any fabric of the net.
    @raise Invalid_argument if the plan fails {!Fault_plan.validate} or
    the net's port count disagrees with [ports]. *)

val sim : t -> Switchsim.Simulator.t

val plan : t -> Fault_plan.t

val tick : t -> unit
(** Apply every fault event due at the current slot (idempotent per slot;
    call exactly once before querying a policy). *)

val check_slot :
  net:Switchsim.Net.t ->
  plan:Fault_plan.t ->
  slot:int ->
  Switchsim.Simulator.transfer list ->
  (unit, string) result
(** The pure fault-and-topology feasibility check one slot must pass:
    ports and fabrics in range, up, links on their duty cycle, each
    oversubscribed fabric within its core budget, and the core-counted
    transfers (see {!Fault_plan.Core_degraded}) within a degraded core's
    budget.  Shared with {!Audit.check}, so the auditor re-derives the
    constraints rather than trusting the injector. *)
