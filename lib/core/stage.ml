type target = Phys | Virt of { vol : int }

type t = { target : target; items : int array; mutable len : int }

let create ~target ~capacity =
  if capacity <= 0 then invalid_arg "Stage.create: capacity must be positive";
  { target; items = Array.make capacity 0; len = 0 }

let target t = t.target
let capacity t = Array.length t.items
let length t = t.len
let is_empty t = t.len = 0

let add t vbn =
  t.items.(t.len) <- vbn;
  t.len <- t.len + 1;
  if t.len >= Array.length t.items then `Full else `Ok

(* Stagers mostly add VBNs in ascending order: detect that and skip the
   sort. *)
let ascending a =
  let rec from i = i >= Array.length a || (a.(i - 1) <= a.(i) && from (i + 1)) in
  from 1

let drain t =
  let items = Array.sub t.items 0 t.len in
  if not (ascending items) then Array.stable_sort Int.compare items;
  t.len <- 0;
  items
