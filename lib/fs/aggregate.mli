(** The mounted file system: an aggregate of RAID groups housing FlexVol
    volumes (paper §II-B), plus the aggregate-wide allocation state that
    the write-allocation infrastructure manipulates.

    This module is pure bookkeeping — it never charges simulated CPU
    itself; callers (Waffinity messages, cleaner threads, the CP engine)
    charge costs according to what they touched.  All mutating entry
    points assume the caller holds the appropriate serialization (an
    affinity or a cleaner-owned structure), exactly as in WAFL.

    The on-disk metafile tree — its block names, serialization,
    superblock, checked reads, recovery load and fsck tree audit — is
    {!Image}'s; this module keeps the live state built on it and the
    summaries derived from it (free and snapshot-held counters, the
    Allocation Area free table, vvbn regions).

    Crash semantics: {!crash} returns the {!Image.t} handle (disk,
    superblock, NVRAM log) and abandons all volatile state; {!recover}
    mounts a fresh instance from it, loads the tree, derives the
    summaries and replays the log. *)

type t

type chaos = {
  publish_before_quiesce : bool;
      (** CPs publish the superblock before the io-flush quiesce and
          write repair: a broken commit ordering that loses acknowledged
          writes on a crash in between — the crash harness's negative
          control *)
  force_b2b : bool;  (** book every CP as back-to-back (accounting only) *)
  inject_hard_dwell : float;
      (** extra hard-watermark dwell µs booked per {!wait_for_log_space}
          call (accounting only) *)
}
(** Test-only fault hooks, fixed per aggregate at {!create}, so they
    never reach a concurrent run.  A {!recover}ed aggregate has none. *)

val no_chaos : chaos
(** Every hook off. *)

val create :
  ?nvlog_half:int ->
  ?nvlog_watermarks:Nvlog.watermarks ->
  ?cache_blocks:int ->
  ?queue_depth:int ->
  ?obs:Wafl_obs.Trace.t ->
  ?flash:Wafl_flash.Ftl.config ->
  ?chaos:chaos ->
  Wafl_sim.Engine.t ->
  cost:Wafl_sim.Cost.t ->
  geometry:Wafl_storage.Geometry.t ->
  unit ->
  t
(** [obs] (default disabled) is handed to each RAID group so device
    service spans and I/O metrics are recorded.  [nvlog_watermarks]
    (default none) enables watermark back-pressure in
    {!wait_for_log_space}; the thresholds live with the NVRAM log, so
    they survive {!crash}/{!recover}.  [flash] (default none) attaches a
    {!Wafl_flash.Ftl} media model to every RAID group: writes program
    NAND pages (with GC push-back), frees are TRIMmed, and the config
    survives {!crash}/{!recover} (the L2P itself is re-derived from the
    recovered activemap).  Off means the device is the flat slab it was
    before — bit-identical behavior.  [chaos] (default {!no_chaos}) arms
    test-only fault hooks. *)

val engine : t -> Wafl_sim.Engine.t
val cost : t -> Wafl_sim.Cost.t
val chaos : t -> chaos
val geometry : t -> Wafl_storage.Geometry.t
val tree : t -> Image.tree
(** The mounted metafile tree, for the {!Image} operations. *)

val disk : t -> Layout.block Wafl_storage.Disk.t
val raid : t -> rg:int -> Layout.block Wafl_storage.Raid.t
val raid_groups : t -> Layout.block Wafl_storage.Raid.t array
val nvlog : t -> Nvlog.t
val counters : t -> Counters.t
(** The loosely accounted model counters (§III-C): free and
    snapshot-held block counts and the deltas cleaners stage in tokens.
    Statistics live in the engine's registry instead. *)

val agg_map : t -> Bitmap_file.t

val set_stream_classifier : t -> (Layout.block -> int) -> unit
(** Route tetris payloads to flash write streams (hot metafiles vs cold
    user data).  No-op without a media model; installed by
    {!Wafl_core.Walloc} when its [streams] policy is on. *)

(** {1 Client operations} *)

val create_volume : t -> vvbn_space:int -> Volume.t
val volume : t -> int -> Volume.t option
val volume_exn : t -> int -> Volume.t
val volumes : t -> Volume.t list
val create_file : t -> vol:int -> File.t

val delete_file : t -> vol:int -> file:int -> unit
(** Log the deletion and queue the file as a zombie; its blocks (data,
    block-map metafile blocks, vvbns) are reclaimed by the next CP. *)

val write :
  t -> vol:int -> file:int -> fbn:int -> content:int64 -> [ `Ok | `Log_half_full | `Log_exhausted ]
(** Log the operation, dirty the buffer and queue the inode for the next
    CP.  [`Log_half_full] asks the caller to trigger a CP.
    [`Log_exhausted] means NVRAM is completely full and the operation was
    shed {e without} being logged or applied (counted in the engine's
    registry as ["nvlog.exhausted_writes"] and reported by
    {!Report.faults}); with watermark back-pressure enabled this is
    unreachable. *)

val read : t -> vol:int -> file:int -> fbn:int -> int64 option
(** Dirty buffers first, then the on-disk tree.  [None] for holes.
    Raises {!Image.Corruption} when the on-disk block does not match the
    metadata that references it — the invariant a broken allocator
    violates. *)

val read_cached_status :
  t -> vol:int -> file:int -> fbn:int -> int64 option * [ `Buffered | `Hit | `Miss ]
(** Like {!read}, also reporting how the block was served: from a dirty
    buffer, from the read buffer cache, or from disk (the caller charges
    the miss cost). *)

val buffer_cache : t -> Buffer_cache.t

val wait_for_log_space : t -> unit
(** Write-admission throttle; call once before each {!write}.

    Without watermarks (the default): parks while the NVRAM filling half
    is full and a CP is still running, returns immediately otherwise —
    the legacy blanket stall.

    With {!Nvlog.watermarks} configured: admission control against NVRAM
    fill (occupancy plus already-admitted writes).  Crossing the soft
    watermark triggers an early CP (via {!set_cp_trigger}) and paces the
    write with a deterministic delay; at the hard watermark admission
    parks until a CP commit frees space.  Time spent parked or paced
    accumulates in the engine registry's ["nvlog.stall_us"] counter; the
    part parked above the hard watermark also in
    ["nvlog.hard_dwell_us"]. *)

val set_cp_trigger : t -> (unit -> unit) -> unit
(** Install the early-CP hook used by watermark admission (normally
    [Cp.request], installed by [Walloc.create]). *)

(** {1 Physical allocation state (infrastructure side)} *)

val commit_alloc_pvbn : t -> int -> unit
val commit_free_pvbn : t -> int -> unit
val pvbn_allocatable : t -> int -> bool
(** Free in the activemap {e and} not frozen by a free earlier in the
    running CP. *)

val commit_alloc_vvbn : t -> vol:Volume.t -> int -> unit
val commit_free_vvbn : t -> vol:Volume.t -> int -> unit
val vvbn_allocatable : t -> vol:Volume.t -> int -> bool

val select_aa : t -> rg:int -> exclude:int list -> int option
(** The Allocation Area of the RAID group with the most free blocks
    (§IV-D), excluding those currently being consumed. *)

val aa_free : t -> rg:int -> aa:int -> int
val select_vvbn_region : t -> vol:Volume.t -> exclude:int list -> int option
val vvbn_region_free : t -> vol:Volume.t -> region:int -> int
val vvbn_region_bits : int

(** {1 Consistency-point support} *)

val cp_snapshot : t -> (Volume.t * File.t list) list
(** Atomically freeze the dirty state of every volume and rotate the
    NVRAM log halves; returns each volume's cleaning work. *)

val cp_done : t -> unit
(** After {!Image.publish}: thaw the VBNs this CP's frees froze, finish
    each volume's CP and re-admit writers parked on NVRAM space. *)

(** {1 Snapshots} *)

val create_snapshot : t -> name:string -> Snapshot.t
(** Pin the tree of the last committed CP.  The pinned blocks stop being
    reusable until the snapshot is deleted.  Requires at least one
    committed CP and no CP in flight; durable from the next CP on. *)

val snapshots : t -> Snapshot.t list
val find_snapshot : t -> string -> Snapshot.t option
val snapshot_held : t -> int -> bool
(** Whether any snapshot references the given pvbn. *)

val delete_snapshot : t -> Snapshot.t -> unit
(** Release the snapshot; blocks no longer referenced by the active tree
    or another snapshot become allocatable again. *)

(** {1 Crash and recovery} *)

val crash : t -> Image.t
val recover :
  ?cache_blocks:int ->
  ?queue_depth:int ->
  ?obs:Wafl_obs.Trace.t ->
  Wafl_sim.Engine.t ->
  cost:Wafl_sim.Cost.t ->
  Image.t ->
  t
(** Mount from the persistent image: load the superblock tree
    ({!Image.load}; raises {!Image.Corruption} on a missing or
    mismatched block), recompute allocation summaries and counters,
    replay the NVRAM log, then re-derive the FTLs' fill. *)

(** {1 Integrity checking (tests)} *)

val fsck : t -> unit
(** Full cross-check: the tree audit ({!Image.audit}) of block maps,
    container maps and activemaps, then the counters and summaries.  Raises [Failure] with a description on any inconsistency.
    Call at quiescent points (no CP in flight). *)
