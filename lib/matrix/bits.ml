(* Bit-twiddling helpers for bitsets packed into native OCaml ints.

   A word carries [bits_per_word] = 62 payload bits (bits 0..61), so
   [(1 lsl n) - 1] is well-defined for every partial word and the sign
   bit is never touched: words can be compared with [<> 0] and combined
   with [land]/[lor]/[lnot] without overflow surprises on 63-bit ints. *)

let bits_per_word = 62

let words_for n = (n + bits_per_word - 1) / bits_per_word

let word_of b = b / bits_per_word

let bit_of b = b mod bits_per_word

(* mask with the [n] low bits set, 0 <= n <= bits_per_word *)
let low_mask n = if n = 0 then 0 else (1 lsl n) - 1

(* number of set bits of a payload word (bits 0..61): SWAR.  Pairs,
   nibbles and bytes are summed in place; every mask fits the 62-bit
   payload, so all constants are positive OCaml ints.  The byte sums
   (at most 62, 7 bits) are then folded into the low byte by shifts. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7F

(* number of trailing zeros; [x] must be nonzero with only payload bits
   set.  [x land -x] isolates the lowest set bit; one less is the mask
   of the bits below it, whose popcount is the answer — branch-free, so
   sparse bitset walks pay no mispredictions. *)
let ntz x = popcount ((x land -x) - 1)
