let popcount (x : int64) =
  (* SWAR popcount, 64-bit. *)
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x = add (logand x 0x3333333333333333L) (logand (shift_right_logical x 2) 0x3333333333333333L) in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* de Bruijn sequence for branch-free 64-bit ctz: isolating the lowest
   set bit and multiplying by B puts a unique 6-bit pattern in the top
   bits, which indexes the position table. *)
let ctz_debruijn = 0x022FDD63CC95386DL

let ctz_table =
  (* [table.(top6 (bit i * B)) = i] — built from the sequence itself, so
     the table cannot disagree with the lookup. *)
  let t = Array.make 64 0 in
  for i = 0 to 63 do
    let idx = Int64.to_int (Int64.shift_right_logical (Int64.mul (Int64.shift_left 1L i) ctz_debruijn) 58) in
    t.(idx) <- i
  done;
  t

let ctz (x : int64) =
  (* Count trailing zeros of a non-zero word, O(1): de Bruijn multiply on
     the isolated lowest bit. *)
  let lowest = Int64.logand x (Int64.neg x) in
  Array.unsafe_get ctz_table (Int64.to_int (Int64.shift_right_logical (Int64.mul lowest ctz_debruijn) 58))

let find_first_zero w =
  let inv = Int64.lognot w in
  if inv = 0L then -1 else ctz inv

let find_next_zero w i =
  if i > 63 then -1
  else
    let mask = if i = 0 then Int64.minus_one else Int64.shift_left Int64.minus_one i in
    let inv = Int64.logand (Int64.lognot w) mask in
    if inv = 0L then -1 else ctz inv

let get w i = Int64.logand (Int64.shift_right_logical w i) 1L = 1L
let set w i = Int64.logor w (Int64.shift_left 1L i)
let clear w i = Int64.logand w (Int64.lognot (Int64.shift_left 1L i))

(* Word arrays live in [Bytes] rather than [int64 array]: an [int64 array]
   holds boxed words, so every bit flip would allocate a fresh box.  The
   bit-level operations below take and return only ints and bools: an
   int64 crossing a module boundary is boxed unless the call is inlined,
   which dev builds ([-opaque]) never do. *)
type words = Bytes.t

let make_words n = Bytes.make (n * 8) '\000'
let word_count b = Bytes.length b lsr 3
let word b w = Bytes.get_int64_le b (w lsl 3)
let set_word b w x = Bytes.set_int64_le b (w lsl 3) x
let test_bit b bit = get (word b (bit lsr 6)) (bit land 63)
let set_bit b bit = set_word b (bit lsr 6) (set (word b (bit lsr 6)) (bit land 63))
let clear_bit b bit = set_word b (bit lsr 6) (clear (word b (bit lsr 6)) (bit land 63))
let find_next_zero_at b w i = find_next_zero (word b w) i
let find_first_zero_at b w = find_first_zero (word b w)
let popcount_at b w = popcount (word b w)
let clear_words b = Bytes.fill b 0 (Bytes.length b) '\000'
