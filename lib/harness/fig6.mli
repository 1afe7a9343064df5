(** Figure 6: infrastructure core usage and throughput with and without
    infrastructure parallelization (cleaner threads parallel in both).

    Paper result: infrastructure usage grows from 0.94 to 2.35 cores,
    and the added metafile-processing bandwidth yields +106% throughput. *)

type row = { parallel : bool; result : Wafl_workload.Driver.result }

val plan : ?scale:float -> unit -> row list Exp.plan
val print : row list -> unit
val shapes : row list -> (string * bool) list
