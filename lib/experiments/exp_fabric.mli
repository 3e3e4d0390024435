(** E15 — oversubscribed fabric (relaxing the paper's non-blocking
    assumption).

    The Facebook cluster behind the paper's trace had a 10:1 core-to-rack
    oversubscription; the model (and this repo's other experiments) assume
    a non-blocking core.  This experiment sweeps the core capacity from
    non-blocking down to 10:1 on a {!Switchsim.Net.two_tier} net and
    measures how much the coflow schedule degrades, using the core-aware
    greedy matching ({!Core.Policy.of_priority}) under the [H_rho]
    priority. *)

type row = {
  label : string;
  core_capacity : int;
  twct : float;
  makespan : int;
  utilization : float;
}

val run : ?jobs:int -> Config.t -> row list
(** [jobs] (default 1) runs the sweep points on that many domains via
    {!Core.Engine.run_many}; rows are identical at any job count. *)

val render : ?jobs:int -> Config.t -> string
