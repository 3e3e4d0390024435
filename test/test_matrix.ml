(* Unit and property tests for the demand-matrix substrate. *)

open Matrix

let fig1 () =
  (* The 2x2 MapReduce coflow from Figure 1 of the paper. *)
  Mat.of_arrays [| [| 1; 2 |]; [| 2; 1 |] |]

let check_int = Alcotest.(check int)

let test_make_zero () =
  let d = Mat.make 3 in
  check_int "dim" 3 (Mat.dim d);
  check_int "total" 0 (Mat.total d);
  Alcotest.(check bool) "is_zero" true (Mat.is_zero d)

let test_make_invalid () =
  Alcotest.check_raises "zero dim" (Invalid_argument
    "Mat.make: dimension must be positive") (fun () -> ignore (Mat.make 0))

let test_get_set () =
  let d = Mat.make 2 in
  Mat.set d 0 1 5;
  check_int "get" 5 (Mat.get d 0 1);
  check_int "other entry untouched" 0 (Mat.get d 1 0)

let test_set_negative () =
  let d = Mat.make 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Mat.set: negative entry")
    (fun () -> Mat.set d 0 0 (-1))

let test_out_of_range () =
  let d = Mat.make 2 in
  (try
     ignore (Mat.get d 2 0);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_add_entry () =
  let d = Mat.make 2 in
  Mat.add_entry d 1 1 4;
  Mat.add_entry d 1 1 (-3);
  check_int "after add" 1 (Mat.get d 1 1);
  (try
     Mat.add_entry d 1 1 (-5);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_of_arrays_roundtrip () =
  let d = fig1 () in
  Alcotest.(check (array (array int)))
    "roundtrip"
    [| [| 1; 2 |]; [| 2; 1 |] |]
    (Mat.to_arrays d)

let test_of_arrays_not_square () =
  (try
     ignore (Mat.of_arrays [| [| 1; 2 |]; [| 3 |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_of_arrays_negative () =
  (try
     ignore (Mat.of_arrays [| [| 1; -2 |]; [| 3; 0 |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_sums () =
  let d = fig1 () in
  check_int "row 0" 3 (Mat.row_sum d 0);
  check_int "row 1" 3 (Mat.row_sum d 1);
  check_int "col 0" 3 (Mat.col_sum d 0);
  check_int "col 1" 3 (Mat.col_sum d 1);
  check_int "total" 6 (Mat.total d);
  Alcotest.(check (array int)) "row_sums" [| 3; 3 |] (Mat.row_sums d);
  Alcotest.(check (array int)) "col_sums" [| 3; 3 |] (Mat.col_sums d)

let test_load_fig1 () =
  (* Paper: the Figure 1 coflow can be finished in exactly 3 slots. *)
  check_int "rho" 3 (Mat.load (fig1 ()))

let test_load_skewed () =
  let d = Mat.of_arrays [| [| 9; 0; 9 |]; [| 0; 9; 0 |]; [| 9; 0; 9 |] |] in
  check_int "rho of Appendix-B coflow 1" 18 (Mat.load d)

let test_nonzero_count () =
  let d = Mat.of_arrays [| [| 0; 2 |]; [| 1; 0 |] |] in
  check_int "M0" 2 (Mat.nonzero_count d)

let test_add_sub () =
  let a = fig1 () in
  let b = Mat.of_arrays [| [| 1; 0 |]; [| 0; 1 |] |] in
  let s = Mat.add a b in
  check_int "sum entry" 2 (Mat.get s 0 0);
  let d = Mat.sub_clamped b a in
  Alcotest.(check bool) "clamped at zero" true (Mat.is_zero d)

let test_sum_list () =
  let a = fig1 () and b = fig1 () in
  let s = Mat.sum 2 [ a; b ] in
  check_int "doubled" 4 (Mat.get s 0 1);
  Alcotest.(check bool) "empty sum" true (Mat.is_zero (Mat.sum 2 []))

let test_scale_map () =
  let a = fig1 () in
  Alcotest.(check bool) "scale 3 = map *3" true
    (Mat.equal (Mat.scale 3 a) (Mat.map (fun v -> 3 * v) a))

let test_diagonal () =
  let d = Mat.diagonal [| 3; 0; 7 |] in
  Alcotest.(check bool) "is_diagonal" true (Mat.is_diagonal d);
  check_int "entry" 7 (Mat.get d 2 2);
  Alcotest.(check bool) "fig1 not diagonal" false (Mat.is_diagonal (fig1 ()))

let test_transpose () =
  let d = Mat.of_arrays [| [| 1; 2 |]; [| 3; 4 |] |] in
  let t = Mat.transpose d in
  check_int "swapped" 3 (Mat.get t 0 1);
  Alcotest.(check bool) "involutive" true (Mat.equal d (Mat.transpose t))

let test_leq () =
  let a = fig1 () in
  let b = Mat.scale 2 a in
  Alcotest.(check bool) "a <= 2a" true (Mat.leq a b);
  Alcotest.(check bool) "2a <= a fails" false (Mat.leq b a)

let test_iter_nonzero () =
  let d = Mat.of_arrays [| [| 0; 5 |]; [| 0; 0 |] |] in
  let seen = ref [] in
  Mat.iter_nonzero (fun i j v -> seen := (i, j, v) :: !seen) d;
  Alcotest.(check (list (triple int int int))) "entries" [ (0, 1, 5) ] !seen

let test_fold_total () =
  let d = fig1 () in
  check_int "fold total" (Mat.total d)
    (Mat.fold (fun acc _ _ v -> acc + v) 0 d)

let test_copy_independent () =
  let a = fig1 () in
  let b = Mat.copy a in
  Mat.set b 0 0 9;
  check_int "original untouched" 1 (Mat.get a 0 0)

(* ---------- properties ---------- *)

let mat_gen =
  QCheck.Gen.(
    let* m = int_range 1 8 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    return (Mat.random ~density:0.6 ~max_entry:9 st m))

let arb_mat = QCheck.make ~print:Mat.to_string mat_gen

let prop_load_bounds =
  QCheck.Test.make ~name:"load is max of row/col sums" ~count:200 arb_mat
    (fun d ->
      let rows = Array.to_list (Mat.row_sums d) in
      let cols = Array.to_list (Mat.col_sums d) in
      Mat.load d = List.fold_left max 0 (rows @ cols))

let prop_load_subadditive =
  QCheck.Test.make ~name:"load is subadditive" ~count:200
    (QCheck.pair arb_mat arb_mat) (fun (a, b) ->
      QCheck.assume (Mat.dim a = Mat.dim b);
      Mat.load (Mat.add a b) <= Mat.load a + Mat.load b)

let prop_load_superadditive_total =
  QCheck.Test.make ~name:"m * load >= total" ~count:200 arb_mat (fun d ->
      Mat.dim d * Mat.load d >= Mat.total d)

let prop_transpose_preserves_load =
  QCheck.Test.make ~name:"transpose preserves load" ~count:200 arb_mat
    (fun d -> Mat.load d = Mat.load (Mat.transpose d))

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutes" ~count:200 (QCheck.pair arb_mat arb_mat)
    (fun (a, b) ->
      QCheck.assume (Mat.dim a = Mat.dim b);
      Mat.equal (Mat.add a b) (Mat.add b a))

let prop_sub_clamped_leq =
  QCheck.Test.make ~name:"sub_clamped stays below minuend" ~count:200
    (QCheck.pair arb_mat arb_mat) (fun (a, b) ->
      QCheck.assume (Mat.dim a = Mat.dim b);
      Mat.leq (Mat.sub_clamped a b) a)

(* Bits.popcount is SWAR arithmetic and Bits.ntz is built on it; pin
   both to their definitions (clear the lowest set bit until none is
   left; shift right until bit 0 is set) on every kind of payload word:
   uniform, sparse, dense, single bits and the extremes 0 and
   [low_mask 62] *)
let payload_gen =
  QCheck.Gen.(
    let half = int_bound ((1 lsl 31) - 1) in
    let word = map2 (fun hi lo -> (hi lsl 31) lor lo) half half in
    oneof
      [ return 0;
        return (Matrix.Bits.low_mask Matrix.Bits.bits_per_word);
        map (fun b -> 1 lsl b) (int_bound (Matrix.Bits.bits_per_word - 1));
        map Matrix.Bits.low_mask (int_bound Matrix.Bits.bits_per_word);
        word;
        map2 ( land ) word word;
        map2 ( lor ) word word;
      ])

let prop_popcount =
  QCheck.Test.make ~name:"Bits.popcount and Bits.ntz equal their bit loops" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "0x%x") payload_gen)
    (fun x ->
      let rec naive x acc =
        if x = 0 then acc else naive (x land (x - 1)) (acc + 1)
      in
      let rec naive_ntz x n =
        if x land 1 = 1 then n else naive_ntz (x lsr 1) (n + 1)
      in
      Matrix.Bits.popcount x = naive x 0
      && (x = 0 || Matrix.Bits.ntz x = naive_ntz x 0))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_load_bounds;
      prop_load_subadditive;
      prop_load_superadditive_total;
      prop_transpose_preserves_load;
      prop_add_commutative;
      prop_sub_clamped_leq;
      prop_popcount;
    ]

let () =
  Alcotest.run "matrix"
    [ ( "mat",
        [ Alcotest.test_case "make zero" `Quick test_make_zero;
          Alcotest.test_case "make invalid" `Quick test_make_invalid;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "set negative" `Quick test_set_negative;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "add_entry" `Quick test_add_entry;
          Alcotest.test_case "of_arrays roundtrip" `Quick
            test_of_arrays_roundtrip;
          Alcotest.test_case "of_arrays not square" `Quick
            test_of_arrays_not_square;
          Alcotest.test_case "of_arrays negative" `Quick
            test_of_arrays_negative;
          Alcotest.test_case "row/col sums" `Quick test_sums;
          Alcotest.test_case "load of Figure 1" `Quick test_load_fig1;
          Alcotest.test_case "load of skewed matrix" `Quick test_load_skewed;
          Alcotest.test_case "nonzero count" `Quick test_nonzero_count;
          Alcotest.test_case "add / sub_clamped" `Quick test_add_sub;
          Alcotest.test_case "sum of list" `Quick test_sum_list;
          Alcotest.test_case "scale = map" `Quick test_scale_map;
          Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "leq" `Quick test_leq;
          Alcotest.test_case "iter_nonzero" `Quick test_iter_nonzero;
          Alcotest.test_case "fold total" `Quick test_fold_total;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
        ] );
      ("properties", properties);
    ]
