(** Read-only snapshots.

    A snapshot pins the on-disk tree of one committed consistency point:
    its superblock plus a copy of the aggregate activemap words at that
    CP (the set of pvbns the snapshot references).  Because WAFL never
    overwrites in place, none of those blocks change afterwards — the
    active file system simply stops freeing them for reuse while the
    snapshot exists ({!Aggregate.pvbn_allocatable} consults {!held_words}).

    Reads against a snapshot ({!Image.read_snapshot}) walk the persisted
    structures directly: superblock → inode chunk → block-map block →
    container chunk → data block, touching nothing in the live file
    system. *)

type t

val make : name:string -> sb:Layout.superblock -> words:Wafl_util.Bitops.words -> t
val name : t -> string
val generation : t -> int
(** The CP generation this snapshot pins. *)

val superblock : t -> Layout.superblock
val held_words : t -> Wafl_util.Bitops.words
(** The raw pinned-block words (not a copy; treat as read-only). *)
