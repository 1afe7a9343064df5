(** Shared infrastructure for the paper-reproduction experiments.

    Every experiment accepts a [scale] factor: 1.0 reproduces the default
    measurement windows; smaller values shrink warmup/measure windows and
    working sets proportionally for quick smoke runs ([of_env] reads
    WAFL_SCALE, with WAFL_QUICK=1 as a 0.25 shortcut). *)

val of_env : unit -> float
(** Scale factor from the environment; 1.0 by default. *)

(** {1 Run plans}

    An experiment declares the driver runs it needs as a plan instead of
    executing them: a list of specs plus a function from their results
    to the experiment's rows.  {!execute} runs any number of plans as
    one batch, so runs that several experiments share (Figure 6's two
    columns are Figure 4 rows, the history and crossover endpoints are
    the White Alligator row, ...) execute once. *)

type 'a plan
(** A computation that needs driver results to produce an ['a]. *)

val runs : Wafl_workload.Driver.spec list -> (Wafl_workload.Driver.result list -> 'a) -> 'a plan
(** [runs specs f] needs one result per spec; [f] receives them in the
    order of [specs]. *)

val sweep :
  'p list ->
  ('p -> Wafl_workload.Driver.spec) ->
  ('p -> Wafl_workload.Driver.result -> 'row) ->
  'row list plan
(** [sweep points spec row]: one run per sweep point, one row per run. *)

val bind : 'a plan -> ('a -> 'b plan) -> 'b plan
(** Sequence two rounds: the second plan's specs may depend on the
    first plan's value (Figure 8 places its knee load from the peak
    round). *)

val map : ('a -> 'b) -> 'a plan -> 'b plan

val with_results : 'a plan -> ('a * Wafl_workload.Driver.result list) plan
(** Also return every result the plan consumed, in the order it asked
    for them (a spec listed twice appears twice). *)

val execute :
  domains:int ->
  run:(Wafl_workload.Driver.spec -> Wafl_workload.Driver.result) ->
  'a plan list ->
  'a list
(** Execute the plans as one batch, round by round: each round collects
    every pending spec of every plan, deduplicates them structurally
    (every field but [obs]), applies [run] once per unique spec on up to
    [domains] worker domains ({!Wafl_util.Pool.map}), and hands each
    plan its results.  Returns the plans' values in input order.
    Byte-identical at any [domains]: runs are pure functions of their
    spec and the pool merges in input order.  [run] is how the caller
    shapes execution — e.g. [fun s -> Driver.run { s with sanitize }]
    — and with [domains = 1] it is applied in first-occurrence order,
    which is what capturing the last run's tracer relies on. *)

val spec_base : scale:float -> Wafl_workload.Driver.spec
(** The common 20-core paper-platform spec: SSD aggregate of 2 RAID
    groups x (10 + 2) drives, 40 Fibre-Channel-style clients, 2 volumes,
    CP timer at 250 ms. *)

val wa_config :
  ?cleaners:int ->
  ?max_cleaners:int ->
  ?parallel_infra:bool ->
  ?dynamic:bool ->
  ?batching:bool ->
  unit ->
  Wafl_core.Walloc.config
(** White Alligator configuration shorthand used by all experiments. *)

val gain_pct : baseline:float -> float -> float

val shape : string -> bool -> string * bool
(** Tag a shape assertion for EXPERIMENTS.md reporting. *)

val print_shapes : (string * bool) list -> unit
