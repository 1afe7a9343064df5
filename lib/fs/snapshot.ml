open Wafl_util

type t = { name : string; sb : Layout.superblock; words : Bitops.words }

let make ~name ~sb ~words = { name; sb; words }
let name t = t.name
let generation t = t.sb.Layout.generation
let superblock t = t.sb

let held_words t = t.words
