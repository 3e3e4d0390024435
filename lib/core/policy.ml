open Switchsim
module Bits = Matrix.Bits

type stepper = {
  next_slot : Simulator.t -> Simulator.transfer list;
  next_batch :
    (Simulator.t -> max_n:int -> Simulator.transfer list * int) option;
  pre_slot : (Simulator.t -> unit) option;
  on_decided : (Simulator.t -> Simulator.transfer list -> unit) option;
  matchings : unit -> int;
}

type t = {
  describe : string;
  prepare : Simulator.t -> stepper;
}

let stepper ?next_batch ?pre_slot ?on_decided ?(matchings = fun () -> 0)
    next_slot =
  { next_slot; next_batch; pre_slot; on_decided; matchings }

let make ~describe prepare = { describe; prepare }

let describe t = t.describe

let stateless ~describe next_slot =
  { describe; prepare = (fun _ -> stepper next_slot) }

(* The greedy maximal matching every order-respecting policy is built on:
   scan coflows in priority order, claim still-free port pairs from their
   remaining demand.  [init] seeds the claimed ports (work-conserving
   top-ups extend a partial slot); new transfers are consed onto it.
   Iteration is over the simulator's sparse per-coflow views, so a slot
   costs O(sum of live nonzeros), not O(coflows * ports^2).

   The sweep runs once per fabric, fastest first ([Net.by_rate]), so the
   head of the priority order lands on the fastest links; each fabric has
   its own free-port bitsets and (when oversubscribed) its own core
   budget, and the same (coflow, src, dst) entry is never claimed on two
   fabrics in one slot.  On [Net.single] this is exactly the classic
   single-switch sweep.

   The scan claims at most one pair per (coflow, src) row per fabric — a
   claimed source blocks the rest of its row — and works wholesale on
   bitset words: a coflow's candidate sources are [live land free_src]
   (one [land] per word covers 62 ports), and a row's first usable
   destination is the lowest set bit of [support.(i) land free_dst],
   restricted to the source's rack when the fabric's core budget is spent
   (rack-local pairs stay admissible after the core fills — the budget
   can never starve them).  Lowest-bit iteration is exactly ascending row
   / ascending column order, so the result is the very matching the
   naive entry-by-entry greedy scan produces.  Once every src (or every
   dst) of a fabric is claimed no later coflow can add a transfer there
   and the scan moves to the next fabric.

   A fault plan is evaluated once, at the slot about to run: down ports
   are cleared from every fabric's free bitsets, down fabrics are
   skipped, a degraded link's duty cycle is tested on a candidate
   destination only while some link degradation is in force, and a
   degraded core is one budget for the whole slot over core-counted
   transfers (those on a rack-less fabric, or crossing their fabric's
   core).  Once it is spent, rack fabrics go rack-local and rack-less
   fabrics stop.

   Per call the kernel allocates its bitsets, a few helper closures and
   the transfer list; per coflow and per candidate it allocates nothing: the
   loops are plain [while] loops over the simulator's read-only bitset
   arrays, fetched once per coflow. *)
let greedy_matching ?plan ?(init = []) sim ~priority =
  let m = Simulator.ports sim in
  let net = Simulator.net sim in
  let kf = Simulator.num_fabrics sim in
  let words = Bits.words_for m and bpw = Bits.bits_per_word in
  (* free ports as bitsets: word w starts with every valid bit set;
     fabric f's word w lives at [f * words + w] *)
  let free_src = Array.make (kf * words) 0 in
  for x = 0 to (kf * words) - 1 do
    free_src.(x) <- Bits.low_mask (min bpw (m - (x mod words * bpw)))
  done;
  let free_dst = Array.copy free_src in
  let n_src = Array.make kf 0 and n_dst = Array.make kf 0 in
  let take free n f p =
    let x = (f * words) + Bits.word_of p and b = 1 lsl Bits.bit_of p in
    if free.(x) land b <> 0 then begin
      free.(x) <- free.(x) lxor b;
      n.(f) <- n.(f) + 1;
      true
    end
    else false
  in
  let rack_of_fabric f =
    match (Net.fabric_of net f).Net.rack_size with None -> 0 | Some rs -> rs
  in
  (* per-fabric inter-rack budget; [max_int] marks a non-blocking fabric *)
  let core_left = Array.make kf max_int in
  for f = 0 to kf - 1 do
    match Net.core_capacity net f with
    | None -> ()
    | Some c -> core_left.(f) <- c
  done;
  (* the plan's state at this slot; [plan_left] is the degraded core's
     whole-slot budget, [max_int] when the core is healthy *)
  let slot = Simulator.now sim in
  let plan = Option.value plan ~default:Faults.Fault_plan.empty in
  let in_force = Faults.Fault_plan.active_at plan ~slot in
  let links =
    List.exists
      (function Faults.Fault_plan.Link_degraded _ -> true | _ -> false)
      in_force
  in
  let fabric_down = Array.make kf false in
  let plan_left = ref max_int in
  List.iter
    (function
      | Faults.Fault_plan.Port_down { port; _ } when port < m ->
        for f = 0 to kf - 1 do
          ignore (take free_src n_src f port);
          ignore (take free_dst n_dst f port)
        done
      | Faults.Fault_plan.Fabric_down { fabric; _ } when fabric < kf ->
        fabric_down.(fabric) <- true
      | Faults.Fault_plan.Core_degraded { capacity; _ } ->
        plan_left := min !plan_left capacity
      | _ -> ())
    in_force;
  (* cross-fabric dedupe, only needed when k > 1: the (coflow, dst) each
     claimed (fabric, src) serves.  An entry (k, i, j) already claimed on
     some fabric holds src i there, so probing i on the k fabrics finds
     it. *)
  let pair_coflow = Array.make (if kf > 1 then kf * m else 0) (-1) in
  let pair_dst = Array.make (if kf > 1 then kf * m else 0) (-1) in
  let claim f i j k =
    let x = (f * words) + Bits.word_of i and b = 1 lsl Bits.bit_of i in
    if free_src.(x) land b <> 0 then begin
      free_src.(x) <- free_src.(x) lxor b;
      n_src.(f) <- n_src.(f) + 1;
      if kf > 1 then begin
        pair_coflow.((f * m) + i) <- k;
        pair_dst.((f * m) + i) <- j
      end
    end;
    let x = (f * words) + Bits.word_of j and b = 1 lsl Bits.bit_of j in
    if free_dst.(x) land b <> 0 then begin
      free_dst.(x) <- free_dst.(x) lxor b;
      n_dst.(f) <- n_dst.(f) + 1
    end;
    if core_left.(f) <> max_int || !plan_left <> max_int then begin
      let crosses = Net.crosses_core net ~fabric:f ~src:i ~dst:j in
      if crosses && core_left.(f) <> max_int then
        core_left.(f) <- core_left.(f) - 1;
      if !plan_left <> max_int && (crosses || rack_of_fabric f = 0) then
        decr plan_left
    end
  in
  List.iter
    (fun { Simulator.src; dst; coflow; fabric } -> claim fabric src dst coflow)
    init;
  let transfers = ref init in
  let order = Net.by_rate net in
  let np = Array.length priority in
  for oi = 0 to kf - 1 do
    let f = order.(oi) in
    let fw = f * words in
    let rack = rack_of_fabric f in
    (* a down fabric takes nothing, nor does a rack-less one once the
       degraded core is spent *)
    let p =
      ref (if fabric_down.(f) || (rack = 0 && !plan_left <= 0) then np else 0)
    in
    while !p < np && n_src.(f) < m && n_dst.(f) < m do
      let k = priority.(!p) in
      incr p;
      if Simulator.released sim k && not (Simulator.is_complete sim k) then begin
        let live = Simulator.remaining_live_words sim k
        and support = Simulator.remaining_support sim k in
        let w = ref 0 in
        while !w < words do
          (* candidate srcs: rows with demand whose port is free.  Claims
             inside this word only ever clear the bit being iterated, so
             the snapshot stays valid. *)
          let cand = ref (live.(!w) land free_src.(fw + !w)) in
          while !cand <> 0 do
            let b = !cand land - !cand in
            cand := !cand lxor b;
            let i = (!w * bpw) + Bits.ntz b in
            (* admissible dst columns [lo, hi): the whole row, or the
               source's rack once a core budget binding it is spent *)
            let local = rack > 0 && (core_left.(f) <= 0 || !plan_left <= 0) in
            let lo = if local then i / rack * rack else 0 in
            let hi = if local then min m (lo + rack) else m in
            let j = ref (-1) and w2 = ref (Bits.word_of lo) in
            let last = Bits.word_of (hi - 1) and row = i * words in
            while !j < 0 && !w2 <= last do
              let base = !w2 * bpw in
              let x = support.(row + !w2) land free_dst.(fw + !w2) in
              let rb =
                ref
                  (if local then
                     x
                     land Bits.low_mask (min bpw (hi - base))
                     land lnot (Bits.low_mask (max 0 (lo - base)))
                   else x)
              in
              while !j < 0 && !rb <> 0 do
                let db = !rb land - !rb in
                rb := !rb lxor db;
                let c = base + Bits.ntz db in
                let ok =
                  ref
                    ((not links)
                    || Faults.Fault_plan.link_usable plan ~slot ~src:i ~dst:c)
                in
                if kf > 1 then
                  for g = 0 to kf - 1 do
                    let q = (g * m) + i in
                    if pair_coflow.(q) = k && pair_dst.(q) = c then ok := false
                  done;
                if !ok then j := c
              done;
              incr w2
            done;
            if !j >= 0 then begin
              claim f i !j k;
              transfers :=
                { Simulator.src = i; dst = !j; coflow = k; fabric = f }
                :: !transfers;
              (* saturated, or a rack-less fabric's degraded core is
                 spent: nothing more fits on this fabric *)
              if n_src.(f) = m || n_dst.(f) = m then begin
                cand := 0;
                w := words
              end
              else if rack = 0 && !plan_left <= 0 then begin
                cand := 0;
                w := words;
                p := np
              end
            end
          done;
          incr w
        done
      end
    done
  done;
  !transfers

(* How many consecutive slots [transfers] may be replayed for without any
   risk of diverging from the slot-by-slot policy:

     - no served pair may hit zero strictly inside the batch (zeros change
       the nonzero structure greedy scans, and completions change the
       candidate set), so the batch is capped at the minimum remaining
       demand over the served pairs — an entry reaching zero exactly at the
       batch's final slot is fine, the next decision sees it;
     - no release boundary may fall inside the batch (a newly released
       coflow changes the candidate set), so it is also capped at the gap
       to the next pending release.

   Any priority that is a pure function of (released set, completion set,
   nonzero structure) — every fixed-order greedy, and the scheduler's BvN
   matching replay — is invariant across such a batch.  For an idle slot
   ([transfers = []]) while releases are pending this degenerates to the
   classic event jump straight to the next release. *)
let skip_bound sim transfers ~max_n =
  let bound = ref max_n in
  (match Simulator.next_release_gap sim with
  | Some g -> if g < !bound then bound := g
  | None -> ());
  List.iter
    (fun { Simulator.src; dst; coflow; fabric } ->
      let r = Simulator.remaining_at sim coflow src dst in
      (* on a rate-[v] fabric the pair survives [n] slots iff
         [r > (n-1) * v]: the last batch slot may zero it, no earlier
         slot may *)
      let rate = Simulator.fabric_rate sim fabric in
      let b = if rate = 1 then r else ((r - 1) / rate) + 1 in
      if b < !bound then bound := b)
    transfers;
  max 1 !bound

let of_priority ~describe priority =
  { describe;
    prepare =
      (fun _ ->
        stepper
          ~next_batch:(fun sim ~max_n ->
            let transfers = greedy_matching sim ~priority in
            (transfers, skip_bound sim transfers ~max_n))
          (fun sim -> greedy_matching sim ~priority));
  }
