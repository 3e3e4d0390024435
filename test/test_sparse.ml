(* Dense-vs-sparse golden equivalence and the event-driven batch step.

   The sparse demand substrate (Matrix.Smat) claims to be a drop-in for
   Mat in every scheduling hot path: same values, same aggregates, same
   row-major iteration order, plus incrementally maintained bitset views
   (live rows, per-row column support) the matching kernels intersect
   with free-port masks.  These tests drive both representations through
   random operation sequences and check every view against a dense
   recompute, check the BvN decomposition is bit-identical over either
   representation, pin the batch step's equivalence and error contract,
   and A/B the batched engine loop against the slot-by-slot one across
   policies, arrivals and mid-run demand growth. *)

open Matrix
open Switchsim

let check_int = Alcotest.(check int)

(* ---------- Smat mirrors Mat under random operation sequences ---------- *)

(* Dimensions up to 70 cross the 62-bit word boundary, so every property
   also exercises multi-word masks. *)
let ops_gen =
  QCheck.Gen.(
    let* m = int_range 1 70 in
    let* n_ops = int_range 0 120 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    let ops =
      List.init n_ops (fun _ ->
          let i = Random.State.int st m and j = Random.State.int st m in
          (* bias towards re-touching entries so 0 -> v -> 0 transitions
             (the bitset clear paths) actually happen *)
          let v = if Random.State.bool st then 0 else Random.State.int st 9 in
          (i, j, v))
    in
    return (m, ops))

let arb_ops =
  QCheck.make
    ~print:(fun (m, ops) ->
      Printf.sprintf "m=%d ops=[%s]" m
        (String.concat "; "
           (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d)<-%d" i j v) ops)))
    ops_gen

let apply_ops m ops =
  let dense = Mat.make m and sparse = Smat.make m in
  List.iter
    (fun (i, j, v) ->
      Mat.set dense i j v;
      Smat.set sparse i j v)
    ops;
  (dense, sparse)

let entries_of_mat d =
  let acc = ref [] in
  Mat.iter_nonzero (fun i j v -> acc := (i, j, v) :: !acc) d;
  List.rev !acc

let entries_of_smat s =
  let acc = ref [] in
  Smat.iter_nonzero (fun i j v -> acc := (i, j, v) :: !acc) s;
  List.rev !acc

let prop_mirror =
  QCheck.Test.make ~name:"Smat mirrors Mat (values, aggregates, order)"
    ~count:300 arb_ops (fun (m, ops) ->
      let dense, sparse = apply_ops m ops in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          if Mat.get dense i j <> Smat.get sparse i j then ok := false
        done
      done;
      !ok
      && Mat.row_sums dense = Smat.row_sums sparse
      && Mat.col_sums dense = Smat.col_sums sparse
      && Mat.total dense = Smat.total sparse
      && Mat.load dense = Smat.load sparse
      && Mat.nonzero_count dense = Smat.nonzero_count sparse
      && Mat.is_zero dense = Smat.is_zero sparse
      (* iteration order is the drop-in contract: row-major, column
         ascending, exactly the dense array's order *)
      && entries_of_mat dense = entries_of_smat sparse
      && Mat.equal dense (Smat.to_dense sparse)
      && Smat.equal sparse (Smat.of_dense dense))

let prop_bitset_views =
  QCheck.Test.make
    ~name:"Smat bitset views agree with a dense recompute" ~count:300 arb_ops
    (fun (m, ops) ->
      let dense, sparse = apply_ops m ops in
      let row_sum i =
        Array.fold_left ( + ) 0 (Array.init m (fun j -> Mat.get dense i j))
      in
      let ok = ref true in
      let words = Smat.bit_words sparse in
      (* live-row mask: bit i <-> row i has remaining demand *)
      for i = 0 to m - 1 do
        let bit =
          Smat.live_mask sparse (Bits.word_of i)
          land (1 lsl Bits.bit_of i)
          <> 0
        in
        if bit <> (row_sum i > 0) then ok := false;
        (* column-support mask of row i: bit j <-> entry (i, j) > 0 *)
        for j = 0 to m - 1 do
          let rbit =
            Smat.row_mask sparse i (Bits.word_of j)
            land (1 lsl Bits.bit_of j)
            <> 0
          in
          if rbit <> (Mat.get dense i j > 0) then ok := false
        done;
        (* no stray bits above the dimension *)
        for w = 0 to words - 1 do
          let valid = Bits.low_mask (min Bits.bits_per_word (m - (w * Bits.bits_per_word))) in
          if Smat.row_mask sparse i w land lnot valid <> 0 then ok := false
        done
      done;
      (* successor queries against a linear scan *)
      for start = 0 to m - 1 do
        let naive_row =
          let r = ref None in
          for i = m - 1 downto start do
            if row_sum i > 0 then r := Some i
          done;
          !r
        in
        if Smat.next_row sparse ~min_row:start <> naive_row then ok := false
      done;
      let live = ref 0 in
      for i = 0 to m - 1 do
        if row_sum i > 0 then incr live
      done;
      !ok && Smat.live_rows sparse = !live)

let prop_row_next =
  QCheck.Test.make ~name:"Smat.row_next equals a linear row scan" ~count:200
    arb_ops (fun (m, ops) ->
      let dense, sparse = apply_ops m ops in
      let ok = ref true in
      for i = 0 to m - 1 do
        for start = 0 to m - 1 do
          let naive =
            let r = ref None in
            for j = m - 1 downto start do
              let v = Mat.get dense i j in
              if v > 0 then r := Some (j, v)
            done;
            !r
          in
          if Smat.row_next sparse i ~min_col:start <> naive then ok := false
        done
      done;
      !ok)

(* Churn: besides single-cell writes, whole rows are filled (every column,
   so a row spans two words once m > 62) and emptied again — the paths
   that grow, shift and drain a packed row end to end. *)
type churn_op = Cell of int * int * int | Fill_row of int * int | Clear_row of int

let churn_ops_gen m =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (let* i = int_bound (m - 1) in
       let* j = int_bound (m - 1) in
       let* v = int_range 1 9 in
       frequency
         [ (6, return (Cell (i, j, v)));
           (2, return (Cell (i, j, 0)));
           (1, return (Fill_row (i, v)));
           (1, return (Clear_row i));
         ]))

let apply_churn dense sparse ops =
  let m = Mat.dim dense in
  let set i j v =
    Mat.set dense i j v;
    Smat.set sparse i j v
  in
  List.iter
    (function
      | Cell (i, j, v) -> set i j v
      | Fill_row (i, v) ->
        for j = 0 to m - 1 do
          set i j (v + (j mod 3))
        done
      | Clear_row i ->
        for j = m - 1 downto 0 do
          set i j 0
        done)
    ops

(* every observable of [sparse] against its dense mirror: values,
   aggregates, iteration order and both bitset views *)
let agrees dense sparse =
  let m = Mat.dim dense in
  let ok = ref (entries_of_mat dense = entries_of_smat sparse) in
  for i = 0 to m - 1 do
    let nnz = ref 0 in
    for j = 0 to m - 1 do
      let v = Mat.get dense i j in
      if v > 0 then incr nnz;
      let bit =
        Smat.row_mask sparse i (Bits.word_of j) land (1 lsl Bits.bit_of j) <> 0
      in
      if Smat.get sparse i j <> v || bit <> (v > 0) then ok := false
    done;
    let live =
      Smat.live_mask sparse (Bits.word_of i) land (1 lsl Bits.bit_of i) <> 0
    in
    if Smat.row_nnz sparse i <> !nnz || live <> (!nnz > 0) then ok := false
  done;
  !ok
  && Mat.row_sums dense = Smat.row_sums sparse
  && Mat.col_sums dense = Smat.col_sums sparse
  && Mat.total dense = Smat.total sparse
  && Mat.load dense = Smat.load sparse
  && Mat.nonzero_count dense = Smat.nonzero_count sparse
  && Smat.equal sparse (Smat.of_dense dense)

let arb_churn =
  QCheck.make
    ~print:(fun (m, a, b, c) ->
      let show ops =
        String.concat "; "
          (List.map
             (function
               | Cell (i, j, v) -> Printf.sprintf "(%d,%d)<-%d" i j v
               | Fill_row (i, v) -> Printf.sprintf "fill %d <-%d" i v
               | Clear_row i -> Printf.sprintf "clear %d" i)
             ops)
      in
      Printf.sprintf "m=%d base=[%s] copy=[%s] original=[%s]" m (show a)
        (show b) (show c))
    QCheck.Gen.(
      let* m = int_range 1 70 in
      let* a = churn_ops_gen m in
      let* b = churn_ops_gen m in
      let* c = churn_ops_gen m in
      return (m, a, b, c))

let prop_copy_churn =
  QCheck.Test.make
    ~name:"Smat.copy shares nothing with its source under row churn"
    ~count:300 arb_churn (fun (m, base, on_copy, on_original) ->
      let dense = Mat.make m and sparse = Smat.make m in
      apply_churn dense sparse base;
      let dense_copy = Mat.copy dense and sparse_copy = Smat.copy sparse in
      let built = agrees dense sparse && agrees dense_copy sparse_copy in
      (* mutate each side on its own; each must still match its own
         mirror, so no write leaked through a shared packed row, bitset or
         aggregate array *)
      apply_churn dense_copy sparse_copy on_copy;
      let original_untouched = agrees dense sparse in
      apply_churn dense sparse on_original;
      built && original_untouched
      && agrees dense sparse
      && agrees dense_copy sparse_copy)

let test_copy_isolated () =
  let s = Smat.make 70 in
  Smat.set s 65 3 4;
  let c = Smat.copy s in
  Smat.set c 65 3 0;
  Smat.set c 2 69 7;
  check_int "original value" 4 (Smat.get s 65 3);
  check_int "original nnz" 1 (Smat.nonzero_count s);
  Alcotest.(check (option int))
    "original live row" (Some 65)
    (Smat.next_row s ~min_row:0);
  check_int "copy diverged" 7 (Smat.get c 2 69)

let test_next_row_word_boundary () =
  let s = Smat.make 70 in
  Smat.set s 0 0 1;
  Smat.set s 61 5 1;
  Smat.set s 62 6 1;
  Smat.set s 69 7 1;
  let next mr = Smat.next_row s ~min_row:mr in
  Alcotest.(check (option int)) "from 0" (Some 0) (next 0);
  Alcotest.(check (option int)) "from 1" (Some 61) (next 1);
  Alcotest.(check (option int)) "from 62 (word 2)" (Some 62) (next 62);
  Alcotest.(check (option int)) "from 63" (Some 69) (next 63);
  Alcotest.(check (option int)) "past the end" None (next 70);
  Smat.set s 69 7 0;
  Alcotest.(check (option int)) "cleared row skipped" None (next 63)

(* ---------- BvN over either representation ---------- *)

let mat_gen =
  QCheck.Gen.(
    let* m = int_range 1 12 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    return (Mat.random ~density:0.5 ~max_entry:9 st m))

let arb_mat = QCheck.make ~print:Mat.to_string mat_gen

let prop_bvn_sparse_equiv =
  QCheck.Test.make
    ~name:"Bvn.schedule_sparse (of_dense d) = Bvn.schedule d" ~count:150
    arb_mat (fun d ->
      Core.Bvn.schedule d = Core.Bvn.schedule_sparse (Smat.of_dense d))

(* ---------- the batch step's contract ---------- *)

let two_coflow_sim () =
  Simulator.create ~ports:2
    [ (0, Mat.of_arrays [| [| 5; 0 |]; [| 0; 5 |] |]);
      (2, Mat.of_arrays [| [| 0; 3 |]; [| 0; 0 |] |]);
    ]

let transfers_0 =
  [ { Simulator.src = 0; dst = 0; coflow = 0; fabric = 0 };
    { Simulator.src = 1; dst = 1; coflow = 0; fabric = 0 };
  ]

let test_batch_equals_repeated_step () =
  let a = two_coflow_sim () and b = two_coflow_sim () in
  Simulator.step_batch a transfers_0 ~slots:3;
  for _ = 1 to 3 do
    Simulator.step b transfers_0
  done;
  check_int "clock" (Simulator.now b) (Simulator.now a);
  check_int "remaining" (Simulator.remaining_at b 0 0 0)
    (Simulator.remaining_at a 0 0 0);
  Alcotest.(check (option int))
    "first service" (Simulator.first_service_time b 0)
    (Simulator.first_service_time a 0);
  (* finish coflow 0 exactly at the batch boundary: completion lands on
     the batch's final slot, as the slot-by-slot path would place it *)
  Simulator.step_batch a transfers_0 ~slots:2;
  Alcotest.(check (option int))
    "completion at batch end" (Some 5) (Simulator.completion_time a 0)

let test_batch_must_not_cross_zero () =
  let s = two_coflow_sim () in
  (try
     Simulator.step_batch s transfers_0 ~slots:6;
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ());
  check_int "state unchanged" 0 (Simulator.now s);
  check_int "demand unchanged" 5 (Simulator.remaining_at s 0 0 0)

let test_batch_size_positive () =
  let s = two_coflow_sim () in
  try
    Simulator.step_batch s transfers_0 ~slots:0;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_release_cache_invalidation () =
  let s = two_coflow_sim () in
  (* first query builds the sorted release cache *)
  Alcotest.(check (option int)) "initial gap" (Some 2) (Simulator.next_release_gap s);
  Simulator.set_release s 1 7;
  Alcotest.(check (option int))
    "gap reflects the moved release" (Some 7) (Simulator.next_release_gap s);
  Simulator.step s transfers_0;
  Alcotest.(check (option int)) "gap follows the clock" (Some 6)
    (Simulator.next_release_gap s)

(* ---------- batched engine loop vs slot-by-slot, across policies ---------- *)

let ab_instance seed =
  let st = Random.State.make [| seed; 0xAB |] in
  Workload.Fb_like.generate_with_arrivals ~mean_gap:3 ~ports:10 ~coflows:24 st

let check_same_run label (a : Core.Engine.result) (b : Core.Engine.result) =
  Alcotest.(check (array int))
    (label ^ ": completion times") a.Core.Engine.completion
    b.Core.Engine.completion;
  Alcotest.(check (float 1e-9)) (label ^ ": twct") a.Core.Engine.twct
    b.Core.Engine.twct;
  check_int (label ^ ": slots") a.Core.Engine.slots b.Core.Engine.slots;
  check_int (label ^ ": matchings") a.Core.Engine.matchings
    b.Core.Engine.matchings

let test_batch_ab_greedy () =
  List.iter
    (fun seed ->
      let inst = ab_instance seed in
      let order = Core.Ordering.by_load_over_weight inst in
      let p = Core.Baselines.greedy_policy order in
      check_same_run
        (Printf.sprintf "greedy seed %d" seed)
        (Core.Engine.run ~batch:false inst p)
        (Core.Engine.run ~batch:true inst p))
    [ 1; 2; 3 ]

let test_batch_ab_scheduler_cases () =
  List.iter
    (fun seed ->
      let inst = ab_instance seed in
      let order = Core.Ordering.by_load_over_weight inst in
      List.iter
        (fun case ->
          check_same_run
            (Printf.sprintf "case %s seed %d" (Core.Scheduler.case_name case)
               seed)
            (Core.Scheduler.run ~case ~batch:false inst order)
            (Core.Scheduler.run ~case ~batch:true inst order))
        Core.Scheduler.all_cases)
    [ 1; 2 ]

let test_batch_ab_grown_demand () =
  (* a straggler-style mid-instance demand growth (the fault layer's
     add_demand path) must not break the A/B: both legs see the grown
     sim before their first slot *)
  let inst = ab_instance 4 in
  let order = Core.Ordering.by_load_over_weight inst in
  let grown () =
    let s =
      Simulator.create
        ~ports:(Workload.Instance.ports inst)
        (Workload.Instance.demands inst)
    in
    Simulator.add_demand s 0 ~src:0 ~dst:1 17;
    Simulator.add_demand s 1 ~src:9 ~dst:9 11;
    s
  in
  let p = Core.Baselines.greedy_policy order in
  check_same_run "grown demand"
    (Core.Engine.run ~sim:(grown ()) ~batch:false inst p)
    (Core.Engine.run ~sim:(grown ()) ~batch:true inst p)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mirror;
      prop_bitset_views;
      prop_row_next;
      prop_bvn_sparse_equiv;
      prop_copy_churn;
    ]

let () =
  Alcotest.run "sparse"
    [ ("smat", properties);
      ( "smat_unit",
        [ Alcotest.test_case "copy isolates bitsets" `Quick test_copy_isolated;
          Alcotest.test_case "next_row across word boundary" `Quick
            test_next_row_word_boundary;
        ] );
      ( "step_batch",
        [ Alcotest.test_case "batch = repeated step" `Quick
            test_batch_equals_repeated_step;
          Alcotest.test_case "batch may not cross a zero" `Quick
            test_batch_must_not_cross_zero;
          Alcotest.test_case "batch size must be positive" `Quick
            test_batch_size_positive;
          Alcotest.test_case "release cache tracks set_release" `Quick
            test_release_cache_invalidation;
        ] );
      ( "batch_ab",
        [ Alcotest.test_case "greedy, arrivals" `Quick test_batch_ab_greedy;
          Alcotest.test_case "scheduler cases a-d, arrivals" `Quick
            test_batch_ab_scheduler_cases;
          Alcotest.test_case "grown demand" `Quick test_batch_ab_grown_demand;
        ] );
    ]
