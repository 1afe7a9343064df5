(** The persistent image: the on-disk metafile tree and the handle that
    survives a crash.  Every piece of metadata is a file (paper §II-B):
    a CP rewrites the dirty metafile blocks at fresh pvbns, then
    publishes a superblock that reaches them all; recovery reads only
    that tree.  This is the only module that knows the tree's shape: it
    names, serializes and relocates its blocks, encodes and publishes
    the superblock, reads blocks back through one checked reader, loads
    the tree on recovery, walks snapshot trees and audits the tree for
    fsck.  The live allocation summaries stay in {!Aggregate}. *)

exception Corruption of string
(** An on-disk block does not match the metadata that references it, or
    is unrecoverable (media error in a degraded RAID group). *)

type t
(** What survives a crash: disk, superblock slot, NVRAM log, flash config. *)

val create :
  ?nvlog_half:int ->
  ?nvlog_watermarks:Nvlog.watermarks ->
  ?flash:Wafl_flash.Ftl.config ->
  Wafl_storage.Geometry.t ->
  t
(** Blank: no superblock, an empty log of [nvlog_half] (16384) per half. *)

val disk : t -> Layout.block Wafl_storage.Disk.t
val superblock : t -> Layout.superblock option
val nvlog : t -> Nvlog.t
val flash : t -> Wafl_flash.Ftl.config option

type tree = {
  img : t;
  eng : Wafl_sim.Engine.t;  (** for sanitizer probes *)
  raids : Layout.block Wafl_storage.Raid.t array;  (** the read path *)
  agg_map : Bitmap_file.t;
  mutable vols : (int * Volume.t) list;  (** ascending ids *)
  vols_tbl : (int, Volume.t) Hashtbl.t;
}
(** The live roots the image is encoded from, one per mount of [img];
    built and owned by {!Aggregate}. *)

val add_volume : tree -> Volume.t -> unit

val generation : tree -> int
(** Of the published superblock; 0 before the first CP. *)

(** {1 Metafile blocks} *)

type meta_ref =
  | Bmap_block of { vol : int; file : int; index : int }
  | Inode_chunk of { vol : int; index : int }
  | Container_chunk of { vol : int; index : int }
  | Vol_map_chunk of { vol : int; index : int }
  | Agg_map_chunk of { index : int }

val take_dirty : tree -> meta_ref list
(** Dirty metafile blocks in dependency order (bmap, inode, container,
    volume map, aggregate map), clearing the dirty flags.  Relocation
    re-dirties blocks, so the CP calls this until it returns []. *)

val payload : tree -> meta_ref -> Layout.block
(** Serialize a block, after every {!set_location} of the pass. *)

val location : tree -> meta_ref -> int
(** Current pvbn, or -1 when never placed or its volume/file is gone. *)

val set_location : tree -> meta_ref -> int -> int
(** Record a new pvbn; returns the previous one (-1 if none), which the
    caller must free. *)

val ref_of_block : Layout.block -> meta_ref option
(** The block a payload serializes; [None] for user data. *)

val agg_map_domain : index:int -> string
val vol_map_domain : vol:int -> index:int -> string
(** Sanitizer data domains, one per map block (DESIGN.md §4.7): the
    names {!payload}'s probes, the infrastructure's scan probes and the
    {!Wafl_waffinity.Isolation} owner map share. *)

(** {1 Superblock and reads} *)

val encode : tree -> free_blocks:int -> snapshots:Snapshot.t list -> Layout.superblock
(** The next superblock: one generation past the published one, reaching
    every placed block, with the free count and snapshot roots. *)

val publish : tree -> Layout.superblock -> unit
(** Make the superblock durable and release the NVRAM half it covers. *)

val read_data : tree -> what:string -> vol:int -> file:int -> fbn:int -> int -> int64
(** The checked data read: the user block at a pvbn must be the given
    file block, else {!Corruption} prefixed by [what].  Like the checked
    metafile reads of {!load} and {!read_snapshot}, it goes through
    {!Wafl_storage.Raid.read}, so media errors and degraded groups are
    reconstructed, and a double failure raises {!Corruption}. *)

val load : tree -> Snapshot.t list
(** Recovery: load the published tree into an empty [tree] (aggregate
    map, then per volume its map, container map, inode file and files'
    block maps) and return the persisted snapshots. *)

val read_snapshot : tree -> Snapshot.t -> vol:int -> file:int -> fbn:int -> int64 option
(** A block as of the snapshot, by checked reads of its pinned tree.
    [None] for holes and absent files or volumes. *)

val audit : tree -> check_volume:(int -> Volume.t -> unit) -> unit
(** fsck's tree audit: every metafile and data block is claimed once, is
    valid and marked used; referenced vvbns are used and mapped, and the
    volume and container maps agree; nothing used is unclaimed.
    [check_volume] runs after each volume.  Raises [Failure "fsck: ..."]. *)
