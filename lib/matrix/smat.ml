(* Sparse nonnegative integer matrix mirroring the [Mat] API.

   Each row packs its strictly positive entries into a value array in
   column-ascending order, and the row's column-support bitset (words
   [i * words .. i * words + words - 1] of [row_bits], one bit per
   nonzero column) doubles as the index:
   entry (i, j) sits at slot [rank d i j], the number of support bits
   below column j.  A lookup is a few word popcounts and one array read;
   overwriting a nonzero entry allocates nothing; creating or clearing
   one shifts the row's tail (O(row nnz)) and grows the row's array, by
   half, only when it is full.  Row sums, column sums, the nonzero count and the
   grand total are maintained incrementally, so every aggregate query is
   O(1) (O(m) for [load]).

   Iteration order is the contract that makes this module a drop-in for
   [Mat] in the scheduling hot paths: [iter_nonzero] visits entries in
   row-major order (row ascending, then column ascending), exactly the
   order [Mat.iter_nonzero] visits its dense array, so greedy matchings and
   BvN decompositions built over either representation are identical.
   Iterators read the live rows: the matrix must not be mutated while one
   of its iterations or sequences is being consumed. *)

type t = {
  m : int;
  words : int; (* Bits.words_for m *)
  vals : int array array;
      (* vals.(i): row i's values, column-ascending, in slots
         [0, row_len.(i)); any slots beyond are spare capacity *)
  row_len : int array; (* nonzeros per row *)
  row_sums : int array;
  col_sums : int array;
  live_bits : int array; (* bit i set iff row i has a nonzero *)
  row_bits : int array;
      (* column-support bitsets, row-major: row i's word w at
         [i * words + w], so a row's words share a cache line *)
  mutable nnz : int;
  mutable total : int;
}

let make m =
  if m <= 0 then invalid_arg "Smat.make: dimension must be positive";
  let words = Bits.words_for m in
  { m;
    words;
    vals = Array.make m [||];
    row_len = Array.make m 0;
    row_sums = Array.make m 0;
    col_sums = Array.make m 0;
    live_bits = Array.make words 0;
    row_bits = Array.make (m * words) 0;
    nnz = 0;
    total = 0;
  }

let dim d = d.m

let check_index d i j =
  if i < 0 || i >= d.m || j < 0 || j >= d.m then
    invalid_arg
      (Printf.sprintf "Smat: index (%d, %d) out of range for %dx%d matrix" i j
         d.m d.m)

(* slot of column [j] in row [i]'s packed array: the support bits below
   [j].  For an absent entry it is the slot an insertion would take. *)
let rank d i j =
  let base = i * d.words in
  let w = base + Bits.word_of j in
  let r =
    ref (Bits.popcount (d.row_bits.(w) land Bits.low_mask (Bits.bit_of j)))
  in
  for v = base to w - 1 do
    r := !r + Bits.popcount d.row_bits.(v)
  done;
  !r

let get d i j =
  check_index d i j;
  if d.row_bits.((i * d.words) + Bits.word_of j) land (1 lsl Bits.bit_of j) = 0
  then 0
  else d.vals.(i).(rank d i j)

(* The single mutation bottleneck: put value [v] (>= 0) at (i, j) and keep
   every aggregate in sync. *)
let put d i j v =
  let bits = d.row_bits in
  let w = (i * d.words) + Bits.word_of j and b = 1 lsl Bits.bit_of j in
  let r = rank d i j in
  let old = if bits.(w) land b = 0 then 0 else d.vals.(i).(r) in
  if v <> old then begin
    let n = d.row_len.(i) in
    if v = 0 then begin
      let a = d.vals.(i) in
      Array.blit a (r + 1) a r (n - r - 1);
      d.row_len.(i) <- n - 1;
      bits.(w) <- bits.(w) land lnot b;
      d.nnz <- d.nnz - 1
    end
    else if old = 0 then begin
      let a =
        let a = d.vals.(i) in
        if n < Array.length a then a
        else begin
          let g = Array.make (n + (n / 2) + 1) 0 in
          Array.blit a 0 g 0 n;
          d.vals.(i) <- g;
          g
        end
      in
      Array.blit a r a (r + 1) (n - r);
      a.(r) <- v;
      d.row_len.(i) <- n + 1;
      bits.(w) <- bits.(w) lor b;
      d.nnz <- d.nnz + 1
    end
    else d.vals.(i).(r) <- v;
    let was_live = d.row_sums.(i) > 0 in
    d.row_sums.(i) <- d.row_sums.(i) + v - old;
    d.col_sums.(j) <- d.col_sums.(j) + v - old;
    d.total <- d.total + v - old;
    if d.row_sums.(i) > 0 <> was_live then begin
      let lw = Bits.word_of i in
      d.live_bits.(lw) <- d.live_bits.(lw) lxor (1 lsl Bits.bit_of i)
    end
  end

let set d i j v =
  check_index d i j;
  if v < 0 then invalid_arg "Smat.set: negative entry";
  put d i j v

let add_entry d i j dv =
  check_index d i j;
  let r = get d i j + dv in
  if r < 0 then invalid_arg "Smat.add_entry: entry would become negative";
  put d i j r

(* deep: the copy owns its packed rows and bitsets (trimmed to size) *)
let copy d =
  { m = d.m;
    words = d.words;
    vals = Array.mapi (fun i a -> Array.sub a 0 d.row_len.(i)) d.vals;
    row_len = Array.copy d.row_len;
    row_sums = Array.copy d.row_sums;
    col_sums = Array.copy d.col_sums;
    live_bits = Array.copy d.live_bits;
    row_bits = Array.copy d.row_bits;
    nnz = d.nnz;
    total = d.total;
  }

let row_sum d i =
  if i < 0 || i >= d.m then invalid_arg "Smat.row_sum: index out of range";
  d.row_sums.(i)

let col_sum d j =
  if j < 0 || j >= d.m then invalid_arg "Smat.col_sum: index out of range";
  d.col_sums.(j)

let row_sums d = Array.copy d.row_sums

let col_sums d = Array.copy d.col_sums

let total d = d.total

let nonzero_count d = d.nnz

let is_zero d = d.nnz = 0

let row_nnz d i =
  if i < 0 || i >= d.m then invalid_arg "Smat.row_nnz: index out of range";
  d.row_len.(i)

let load d =
  let best = ref 0 in
  for p = 0 to d.m - 1 do
    if d.row_sums.(p) > !best then best := d.row_sums.(p);
    if d.col_sums.(p) > !best then best := d.col_sums.(p)
  done;
  !best

(* row [i]'s entries, column-ascending: walk the support bits, reading
   the packed values in step *)
let iter_row_unchecked d i f =
  let a = d.vals.(i) and base = i * d.words in
  let slot = ref 0 in
  for w = 0 to d.words - 1 do
    let x = ref d.row_bits.(base + w) in
    while !x <> 0 do
      let b = !x land - !x in
      x := !x lxor b;
      f ((w * Bits.bits_per_word) + Bits.ntz b) a.(!slot);
      incr slot
    done
  done

(* row-major, column-ascending: the same order as [Mat.iter_nonzero] *)
let iter_nonzero f d =
  for i = 0 to d.m - 1 do
    if d.row_len.(i) > 0 then iter_row_unchecked d i (f i)
  done

let iter_row d i f =
  if i < 0 || i >= d.m then invalid_arg "Smat.iter_row: index out of range";
  iter_row_unchecked d i f

(* first support column of row [i] at index >= [min_col], or -1 *)
let next_col d i min_col =
  let base = i * d.words in
  let rec go w mask =
    if w >= d.words then -1
    else begin
      let x = d.row_bits.(base + w) land mask in
      if x = 0 then go (w + 1) (-1)
      else (w * Bits.bits_per_word) + Bits.ntz (x land -x)
    end
  in
  if min_col >= d.m then -1
  else go (Bits.word_of min_col) (lnot (Bits.low_mask (Bits.bit_of min_col)))

(* column-ascending sequence of one row's nonzeros; used by consumers that
   need early exit (e.g. Kuhn augmentation over the support) *)
let row_seq d i =
  if i < 0 || i >= d.m then invalid_arg "Smat.row_seq: index out of range";
  let rec from min_col slot () =
    let j = next_col d i min_col in
    if j < 0 then Seq.Nil
    else Seq.Cons ((j, d.vals.(i).(slot)), from (j + 1) (slot + 1))
  in
  from 0 0

(* first nonzero of row [i] in a column >= [min_col]; lets matching loops
   leapfrog a run of unavailable columns in one bitset probe instead of
   walking the row entry by entry *)
let row_next d i ~min_col =
  if i < 0 || i >= d.m then invalid_arg "Smat.row_next: index out of range";
  let j = next_col d i (max 0 min_col) in
  if j < 0 then None else Some (j, d.vals.(i).(rank d i j))

(* bitset views: one word of the live-row set / of one row's column
   support.  Matching loops intersect these with free-port bitsets, so a
   single [land] stands in for a scan over up to 62 ports. *)
let bit_words d = d.words

let live_mask d w = d.live_bits.(w)

let row_mask d i w =
  if i < 0 || i >= d.m || w < 0 || w >= d.words then
    invalid_arg "Smat.row_mask: index out of range";
  d.row_bits.((i * d.words) + w)

(* The same views as whole arrays, for kernels that sweep many words of
   one matrix: [live_words d] is the live-row bitset, [support d] the
   column-support bitsets, row-major ([(support d).(i * bit_words d + w)]
   is [row_mask d i w]).  They are the matrix's own storage, returned
   without a copy — read-only: writing through them breaks every
   invariant above. *)
let live_words d = d.live_bits

let support d = d.row_bits

(* first row with any nonzero at index >= [min_row]; the live-row bitset
   is maintained incrementally by [put], so sparse consumers can iterate
   a nearly-drained matrix in O(live rows + words) instead of O(m) *)
let next_row d ~min_row =
  if min_row >= d.m then None
  else begin
    let rec go w mask =
      if w >= d.words then None
      else begin
        let bits = d.live_bits.(w) land mask in
        if bits = 0 then go (w + 1) (lnot 0)
        else Some ((w * Bits.bits_per_word) + Bits.ntz (bits land -bits))
      end
    in
    go (Bits.word_of min_row) (lnot (Bits.low_mask (Bits.bit_of min_row)))
  end

let live_rows d =
  Array.fold_left (fun acc w -> acc + Bits.popcount w) 0 d.live_bits

let fold_nonzero f init d =
  let acc = ref init in
  iter_nonzero (fun i j v -> acc := f !acc i j v) d;
  !acc

let row_equal a b i =
  let n = a.row_len.(i) in
  n = b.row_len.(i)
  &&
  let va = a.vals.(i) and vb = b.vals.(i) in
  let rec go s = s >= n || (va.(s) = vb.(s) && go (s + 1)) in
  go 0

let equal a b =
  a.m = b.m && a.nnz = b.nnz && a.total = b.total
  && a.row_bits = b.row_bits
  &&
  let rec go i = i >= a.m || (row_equal a b i && go (i + 1)) in
  go 0

(* two passes over the dense array: count each row's nonzeros, then fill
   rows sized exactly to them *)
let of_dense dm =
  let s = make (Mat.dim dm) in
  Mat.iter_nonzero (fun i _ _ -> s.row_len.(i) <- s.row_len.(i) + 1) dm;
  Array.iteri (fun i n -> if n > 0 then s.vals.(i) <- Array.make n 0) s.row_len;
  let slot = Array.make s.m 0 in
  Mat.iter_nonzero
    (fun i j v ->
      s.vals.(i).(slot.(i)) <- v;
      slot.(i) <- slot.(i) + 1;
      let w = (i * s.words) + Bits.word_of j in
      s.row_bits.(w) <- s.row_bits.(w) lor (1 lsl Bits.bit_of j);
      s.row_sums.(i) <- s.row_sums.(i) + v;
      s.col_sums.(j) <- s.col_sums.(j) + v;
      s.total <- s.total + v;
      s.nnz <- s.nnz + 1)
    dm;
  Array.iteri
    (fun i r ->
      if r > 0 then begin
        let w = Bits.word_of i in
        s.live_bits.(w) <- s.live_bits.(w) lor (1 lsl Bits.bit_of i)
      end)
    s.row_sums;
  s

let to_dense s =
  let d = Mat.make s.m in
  iter_nonzero (fun i j v -> Mat.set d i j v) s;
  d

let pp ppf d = Mat.pp ppf (to_dense d)

let to_string d = Format.asprintf "%a" pp d
