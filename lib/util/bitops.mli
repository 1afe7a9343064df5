(** Bit-manipulation helpers for the 64-bit words backing allocation
    bitmaps. Bit [i] of a word corresponds to block [base + i]; a set bit
    means "in use", a clear bit means "free" (matching WAFL's active map
    convention). *)

val popcount : int64 -> int
(** Number of set bits. *)

val ctz : int64 -> int
(** Count trailing zeros of a non-zero word (branch-free de Bruijn
    lookup); undefined on 0. *)

val find_first_zero : int64 -> int
(** Index (0-63) of the lowest clear bit, or -1 if the word is all ones. *)

val find_next_zero : int64 -> int -> int
(** [find_next_zero w i] is the lowest clear bit index [>= i], or -1. *)

val get : int64 -> int -> bool
val set : int64 -> int -> int64
val clear : int64 -> int -> int64

(** {1 Unboxed word arrays}

    Little-endian 64-bit words packed in [Bytes].  Apart from {!word} and
    {!set_word}, these take and return only ints and bools, so testing,
    flipping and scanning bits allocates nothing even where the call is
    not inlined (an [int64] crossing a call boundary is boxed). *)

type words = Bytes.t

val make_words : int -> words
(** [make_words n]: [n] zero words. *)

val word_count : words -> int
val word : words -> int -> int64
val set_word : words -> int -> int64 -> unit

val test_bit : words -> int -> bool
(** Bit [b] lives in word [b / 64], position [b mod 64]. *)

val set_bit : words -> int -> unit
val clear_bit : words -> int -> unit

val find_next_zero_at : words -> int -> int -> int
(** [find_next_zero_at b w i] is [find_next_zero (word b w) i]. *)

val find_first_zero_at : words -> int -> int
val popcount_at : words -> int -> int

val clear_words : words -> unit
(** Zero every word. *)
