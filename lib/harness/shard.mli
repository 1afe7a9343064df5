(** Fleet-sharded aggregate experiment.

    The fleet-scale roadmap item needs many aggregates / volume groups
    advancing concurrently on the host.  This experiment runs a fleet of
    [shards] independent aggregate stacks (engine, RAID, NVLog, CP
    engine, cleaner pool, client population), each as one
    {!Wafl_util.Pool.map} task with its own engine, and couples them
    where the paper's architecture synchronizes globally: the
    aggregate-wide consistency point.  Every [epoch_us] of virtual time
    a global CP epoch begins, and 1 ms later its tick reaches every
    shard: the host stops the shard's engine at the tick time, injects
    a fiber that requests a checkpoint, and records the shard's
    completed-operation count (fleet telemetry).  The host then folds
    the per-shard results.

    Shards share no state, so the outcome is byte-identical at any
    [domains] (tested in test_domains.ml); on a multicore host wall time
    scales with [min shards domains]. *)

type row = {
  shard : int;
  ops : int;  (** client writes completed during the measurement window *)
  cps : int;  (** checkpoints completed during the measurement window *)
  util : float;  (** engine utilization over the measurement window *)
}

type outcome = {
  rows : row list;
  epochs : int;  (** global CP epochs begun during measurement *)
  fleet_reported : int;
      (** sum of the op counts each shard recorded at its last epoch
          tick — nonzero proves the epoch ticks reach the fleet *)
  horizon : float;  (** final virtual time *)
  telemetry : Wafl_obs.Rollup.snapshot;
      (** per-shard rollup snapshots (each fed only by its own shard's
          fibers, into its own engine's registry) merged
          deterministically; volume ids are namespaced by shard *)
}

val run :
  ?scale:float -> ?shards:int -> ?domains:int -> ?seed:int -> unit -> outcome
(** [run ~scale ~shards ~domains ~seed ()] — [shards] (default 4)
    independent shards, fanned over [domains] (default 1) worker
    domains. *)

val digest : outcome -> string
(** One-line deterministic digest of every field, for byte-identity
    checks across domain counts. *)

val shapes : outcome -> (string * bool) list
val print : shards:int -> domains:int -> outcome -> unit
