open Wafl_storage
open Wafl_sim

exception Corruption of string

type t = {
  disk : Layout.block Disk.t;
  mutable sb : Layout.superblock option;
  nvlog : Nvlog.t;
  flash : Wafl_flash.Ftl.config option;
      (* media model config; the FTL state itself is volatile (the real
         device rebuilds its L2P from NAND metadata on power-on, modeled
         by re-deriving fill from the recovered activemap) *)
}

let create ?(nvlog_half = 16384) ?nvlog_watermarks ?flash geometry =
  {
    disk = Disk.create geometry;
    sb = None;
    nvlog = Nvlog.create ~half_capacity:nvlog_half ?watermarks:nvlog_watermarks ();
    flash;
  }

let disk t = t.disk
let superblock t = t.sb
let nvlog t = t.nvlog
let flash t = t.flash

type tree = {
  img : t;
  eng : Engine.t;
  raids : Layout.block Raid.t array;
  agg_map : Bitmap_file.t;
  mutable vols : (int * Volume.t) list;
  vols_tbl : (int, Volume.t) Hashtbl.t;
}

let generation tree = match tree.img.sb with Some sb -> sb.Layout.generation | None -> 0
let cp_count tree = match tree.img.sb with Some sb -> sb.Layout.cp_count | None -> 0

let add_volume tree v =
  tree.vols <- tree.vols @ [ (Volume.id v, v) ];
  Hashtbl.replace tree.vols_tbl (Volume.id v) v

(* Hashtbl.find, not find_opt: no option allocated per metafile block. *)
let volume_exn tree vid =
  match Hashtbl.find tree.vols_tbl vid with
  | v -> v
  | exception Not_found -> invalid_arg (Printf.sprintf "Image: no volume %d" vid)

(* Sanitizer data-domain names (DESIGN.md §4.7). *)
let agg_map_domain ~index = Printf.sprintf "agg.map/%d" index
let vol_map_domain ~vol ~index = Printf.sprintf "vol/%d.map/%d" vol index

(* --- metafile block references --- *)

type meta_ref =
  | Bmap_block of { vol : int; file : int; index : int }
  | Inode_chunk of { vol : int; index : int }
  | Container_chunk of { vol : int; index : int }
  | Vol_map_chunk of { vol : int; index : int }
  | Agg_map_chunk of { index : int }

(* Refs for ascending block indices [l], prepended in order to [r]. *)
let rec aggs r = function [] -> r | index :: l -> Agg_map_chunk { index } :: aggs r l
let rec vmaps vol r = function [] -> r | index :: l -> Vol_map_chunk { vol; index } :: vmaps vol r l
let rec cont vol r = function [] -> r | index :: l -> Container_chunk { vol; index } :: cont vol r l
let rec inodes vol r = function [] -> r | index :: l -> Inode_chunk { vol; index } :: inodes vol r l

let rec bmaps vol file r = function
  | [] -> r
  | index :: l -> Bmap_block { vol; file; index } :: bmaps vol file r l

let take_dirty tree =
  (* Aggregate map last: relocating any other block dirties it. *)
  let acc = ref (aggs [] (Bitmap_file.dirty_blocks tree.agg_map)) in
  Bitmap_file.clear_dirty tree.agg_map;
  List.iter
    (fun (vol, v) ->
      acc := vmaps vol !acc (Bitmap_file.dirty_blocks (Volume.vol_map v));
      Bitmap_file.clear_dirty (Volume.vol_map v);
      acc := cont vol !acc (Volume.dirty_container_chunks v);
      Volume.clear_dirty_containers v;
      acc := inodes vol !acc (Volume.dirty_inode_chunks v);
      Volume.clear_dirty_inode_chunks v;
      (* Bmap dirt lives on files touched by this CP's cleaning. *)
      List.iter
        (fun f ->
          acc := bmaps vol (File.id f) !acc (File.dirty_bmap_blocks f);
          File.clear_dirty_bmap f)
        (Volume.cp_files v))
    (List.rev tree.vols);
  !acc

let payload tree = function
  | Bmap_block { vol; file; index } ->
      let f = Volume.file_exn (volume_exn tree vol) file in
      Layout.Bmap { vol; file; index; entries = File.bmap_entries f index }
  | Inode_chunk { vol; index } ->
      Layout.Inode_chunk { vol; index; inodes = Volume.inode_chunk (volume_exn tree vol) index }
  | Container_chunk { vol; index } ->
      Layout.Container
        { vol; index; entries = Volume.container_entries (volume_exn tree vol) index }
  | Vol_map_chunk { vol; index } ->
      if Engine.sanitizing tree.eng then
        Engine.probe_locked tree.eng ~shared:(vol_map_domain ~vol ~index) Race.Read;
      let map = Volume.vol_map (volume_exn tree vol) in
      Layout.Vol_map { vol; index; words = Bitmap_file.words_of_block map index }
  | Agg_map_chunk { index } ->
      if Engine.sanitizing tree.eng then
        Engine.probe_locked tree.eng ~shared:(agg_map_domain ~index) Race.Read;
      Layout.Agg_map { index; words = Bitmap_file.words_of_block tree.agg_map index }

(* Current on-disk location of a metafile block, or -1 when the owning
   volume/file no longer exists (e.g. deleted between enqueue and a CP
   repair round) or the block was never placed. *)
let location tree ref_ =
  match ref_ with
  | Agg_map_chunk { index } -> Bitmap_file.location tree.agg_map index
  | (Bmap_block { vol; _ } | Inode_chunk { vol; _ } | Container_chunk { vol; _ }
    | Vol_map_chunk { vol; _ })
    when not (Hashtbl.mem tree.vols_tbl vol) ->
      -1
  | Bmap_block { vol; file; index } -> (
      match Volume.file (volume_exn tree vol) file with
      | None -> -1
      | Some f -> File.bmap_location f index)
  | Inode_chunk { vol; index } -> Volume.inode_location (volume_exn tree vol) index
  | Container_chunk { vol; index } -> Volume.container_location (volume_exn tree vol) index
  | Vol_map_chunk { vol; index } ->
      Bitmap_file.location (Volume.vol_map (volume_exn tree vol)) index

let set_location tree ref_ pvbn =
  match ref_ with
  | Bmap_block { vol; file; index } ->
      let v = volume_exn tree vol in
      let f = Volume.file_exn v file in
      let old = File.set_bmap_location f index pvbn in
      (* The inode record embeds bmap locations, so it changed too. *)
      Volume.mark_inode_dirty v f;
      old
  | Inode_chunk { vol; index } -> Volume.set_inode_location (volume_exn tree vol) index pvbn
  | Container_chunk { vol; index } ->
      Volume.set_container_location (volume_exn tree vol) index pvbn
  | Vol_map_chunk { vol; index } ->
      Bitmap_file.set_location (Volume.vol_map (volume_exn tree vol)) index pvbn
  | Agg_map_chunk { index } -> Bitmap_file.set_location tree.agg_map index pvbn

let ref_of_block = function
  | Layout.Bmap { vol; file; index; _ } -> Some (Bmap_block { vol; file; index })
  | Layout.Inode_chunk { vol; index; _ } -> Some (Inode_chunk { vol; index })
  | Layout.Container { vol; index; _ } -> Some (Container_chunk { vol; index })
  | Layout.Vol_map { vol; index; _ } -> Some (Vol_map_chunk { vol; index })
  | Layout.Agg_map { index; _ } -> Some (Agg_map_chunk { index })
  | Layout.Data _ -> None

(* --- the superblock --- *)

let encode tree ~free_blocks ~snapshots =
  {
    Layout.generation = generation tree + 1;
    cp_count = cp_count tree + 1;
    vols = List.map (fun (_, v) -> Volume.to_vol_rec v) tree.vols;
    aggmap_pvbns = Bitmap_file.locations tree.agg_map;
    free_blocks;
    snap_roots =
      List.map
        (fun s -> (Snapshot.name s, { (Snapshot.superblock s) with Layout.snap_roots = [] }))
        snapshots;
  }

let publish tree sb =
  tree.img.sb <- Some sb;
  if Engine.sanitizing tree.eng then Engine.probe_atomic tree.eng ~shared:"fs.nvlog";
  Nvlog.cp_commit tree.img.nvlog

(* --- reads --- *)

(* All on-disk reads funnel through the RAID read path so that latent
   media errors and degraded groups are handled (reconstruction from the
   parity model) instead of silently returning the stored payload. *)
let read_pvbn tree pvbn =
  match Raid.read tree.raids.(Geometry.rg_of (Disk.geometry tree.img.disk) pvbn) pvbn with
  | `Ok p | `Degraded p -> Some p
  | `Absent -> None
  | `Lost ->
      raise
        (Corruption
           (Printf.sprintf "pvbn %d unrecoverable: media error in a degraded RAID group" pvbn))

let kind_name = function
  | Bmap_block _ -> "bmap block"
  | Inode_chunk _ -> "inode chunk"
  | Container_chunk _ -> "container chunk"
  | Vol_map_chunk _ -> "volmap chunk"
  | Agg_map_chunk _ -> "aggmap chunk"

(* The checked reader: the metafile block at [pvbn] must be [ref_]. *)
let read_meta tree ~what ref_ pvbn =
  match read_pvbn tree pvbn with
  | Some block when ref_of_block block = Some ref_ -> block
  | Some _ -> raise (Corruption (Printf.sprintf "%s%s has wrong payload" what (kind_name ref_)))
  | None ->
      raise (Corruption (Printf.sprintf "%s%s at pvbn %d missing" what (kind_name ref_) pvbn))

let data_corruption what ~vol ~file ~fbn pvbn problem =
  Corruption (Printf.sprintf "%svol %d file %d fbn %d: pvbn %d %s" what vol file fbn pvbn problem)

let read_data tree ~what ~vol ~file ~fbn pvbn =
  match read_pvbn tree pvbn with
  | Some (Layout.Data d) when d.vol = vol && d.file = file && d.fbn = fbn -> d.content
  | Some _ -> raise (data_corruption what ~vol ~file ~fbn pvbn "holds someone else's block")
  | None -> raise (data_corruption what ~vol ~file ~fbn pvbn "never written")

(* --- recovery: load the published tree --- *)

(* Deserialize a checked metafile block into the live tree; aggregate
   map chunks into [agg_map] (a snapshot's own map, or the tree's). *)
let install tree agg_map = function
  | Layout.Agg_map { index; words } -> Bitmap_file.load_block agg_map index words
  | Layout.Vol_map { vol; index; words } ->
      Bitmap_file.load_block (Volume.vol_map (volume_exn tree vol)) index words
  | Layout.Container { vol; index; entries } ->
      Volume.load_container_chunk (volume_exn tree vol) ~index ~entries
  | Layout.Inode_chunk { vol; inodes; _ } -> Volume.load_inode_chunk (volume_exn tree vol) inodes
  | Layout.Bmap { vol; file; index; entries } ->
      File.load_bmap_block (Volume.file_exn (volume_exn tree vol) file) ~index ~entries
  | Layout.Data _ -> invalid_arg "Image.install: data block"

let load_all ?(what = "recovery: ") ?agg_map tree locations ref_of =
  let agg_map = Option.value agg_map ~default:tree.agg_map in
  Array.iter
    (fun (index, pvbn) -> install tree agg_map (read_meta tree ~what (ref_of index) pvbn))
    locations

(* The volume's maps and inode file load before its files' block maps:
   the inode chunks create the files whose bmaps follow. *)
let load_volume tree (vr : Layout.vol_rec) =
  let v = Volume.of_vol_rec vr and vol = vr.Layout.vol_id in
  add_volume tree v;
  load_all tree vr.Layout.volmap_pvbns (fun index -> Vol_map_chunk { vol; index });
  Bitmap_file.clear_dirty (Volume.vol_map v);
  load_all tree vr.Layout.container_pvbns (fun index -> Container_chunk { vol; index });
  Volume.clear_dirty_containers v;
  load_all tree vr.Layout.inode_chunk_pvbns (fun index -> Inode_chunk { vol; index });
  Volume.clear_dirty_inode_chunks v;
  List.iter
    (fun f ->
      let file = File.id f in
      load_all tree (File.inode_rec f).Layout.bmap_pvbns (fun index ->
          Bmap_block { vol; file; index });
      File.clear_dirty_bmap f)
    (Volume.files v)

(* A snapshot's pinned block set, rebuilt from its own persisted
   activemap chunks. *)
let load_snapshot tree (name, (sb : Layout.superblock)) =
  let agg_map = Bitmap_file.create ~bits:(Bitmap_file.nbits tree.agg_map) in
  load_all ~what:"recovery: snapshot " ~agg_map tree sb.Layout.aggmap_pvbns (fun index ->
      Agg_map_chunk { index });
  Snapshot.make ~name ~sb ~words:(Bitmap_file.snapshot_words agg_map)

let load tree =
  match tree.img.sb with
  | None -> []
  | Some sb ->
      load_all tree sb.Layout.aggmap_pvbns (fun index -> Agg_map_chunk { index });
      Array.iter
        (fun (index, pvbn) -> ignore (Bitmap_file.set_location tree.agg_map index pvbn))
        sb.Layout.aggmap_pvbns;
      Bitmap_file.clear_dirty tree.agg_map;
      List.iter (load_volume tree) sb.Layout.vols;
      List.map (load_snapshot tree) sb.Layout.snap_roots

(* --- snapshot point lookup --- *)

exception Hole

let assoc_location locations index =
  match Array.find_opt (fun (i, _) -> i = index) locations with Some (_, p) -> p | None -> -1

let entries_of = function
  | Layout.Bmap { entries; _ } | Layout.Container { entries; _ } -> entries
  | _ -> assert false (* checked by read_meta *)

(* Superblock -> inode chunk -> block-map block -> container chunk ->
   data block, every hop a checked read of the pinned tree; [Hole] ends
   the walk at an absent volume, file or block. *)
let read_snapshot tree snap ~vol ~file ~fbn =
  let what = "snapshot: " in
  let corrupt msg = raise (Corruption (what ^ msg)) in
  let read_located ref_ locations index =
    match assoc_location locations index with
    | -1 -> raise Hole
    | pvbn -> read_meta tree ~what ref_ pvbn
  in
  let vols = (Snapshot.superblock snap).Layout.vols in
  match
    let vr =
      match List.find_opt (fun (vr : Layout.vol_rec) -> vr.Layout.vol_id = vol) vols with
      | Some vr -> vr
      | None -> raise Hole
    in
    let index = file / Layout.inodes_per_block in
    let inode =
      match read_located (Inode_chunk { vol; index }) vr.Layout.inode_chunk_pvbns index with
      | Layout.Inode_chunk { inodes; _ } -> (
          match List.find_opt (fun (r : Layout.inode_rec) -> r.Layout.file_id = file) inodes with
          | Some r when fbn >= 0 && fbn < r.Layout.nfbns -> r
          | _ -> raise Hole)
      | _ -> assert false (* checked by read_meta *)
    in
    let index = fbn / Layout.entries_per_bmap_block in
    let bmap = read_located (Bmap_block { vol; file; index }) inode.Layout.bmap_pvbns index in
    let vvbn = (entries_of bmap).(fbn mod Layout.entries_per_bmap_block) in
    if vvbn < 0 then raise Hole;
    let index = vvbn / Layout.entries_per_container_block in
    let cpvbn = assoc_location vr.Layout.container_pvbns index in
    if cpvbn < 0 then corrupt "vvbn has no container chunk";
    let container = read_meta tree ~what (Container_chunk { vol; index }) cpvbn in
    let pvbn = (entries_of container).(vvbn mod Layout.entries_per_container_block) in
    if pvbn < 0 then corrupt "vvbn unmapped in container";
    read_data tree ~what ~vol ~file ~fbn pvbn
  with
  | content -> Some content
  | exception Hole -> None

(* --- fsck: the tree audit --- *)

let fail_fsck fmt = Printf.ksprintf (fun s -> failwith ("fsck: " ^ s)) fmt
let claim_all claim what = Array.iter (fun (i, pvbn) -> claim pvbn (Printf.sprintf "%s %d" what i))

(* Claim every block of one volume's tree: its maps, inode file, block
   maps and data, checking each vvbn against the volume map and the
   container map. *)
let audit_volume claim vid v =
  let used_vvbns = Hashtbl.create 4096 in
  let vmap = Volume.vol_map v in
  let vr = Volume.to_vol_rec v in
  let what = Printf.sprintf "vol %d %s" vid in
  claim_all claim (what "volmap chunk") vr.Layout.volmap_pvbns;
  claim_all claim (what "container chunk") vr.Layout.container_pvbns;
  claim_all claim (what "inode chunk") vr.Layout.inode_chunk_pvbns;
  List.iter
    (fun f ->
      let bmaps = (File.inode_rec f).Layout.bmap_pvbns in
      claim_all claim (what (Printf.sprintf "file %d bmap" (File.id f))) bmaps;
      for fbn = 0 to File.nfbns f - 1 do
        let vvbn = File.vvbn_of_fbn f fbn in
        if vvbn >= 0 then begin
          (match Hashtbl.find_opt used_vvbns vvbn with
          | Some other ->
              fail_fsck "vol %d vvbn %d claimed by both %s and file %d/%d" vid vvbn other
                (File.id f) fbn
          | None -> Hashtbl.add used_vvbns vvbn (Printf.sprintf "file %d/%d" (File.id f) fbn));
          if not (Bitmap_file.mem vmap vvbn) then
            fail_fsck "vol %d: vvbn %d referenced but free in volume map" vid vvbn;
          let pvbn = Volume.pvbn_of_vvbn v vvbn in
          if pvbn < 0 then fail_fsck "vol %d: vvbn %d has no container entry" vid vvbn;
          claim pvbn (Printf.sprintf "vol %d vvbn %d" vid vvbn)
        end
      done)
    (Volume.files v);
  (* Every used vvbn must be referenced by exactly one (file, fbn). *)
  if Bitmap_file.used_count vmap <> Hashtbl.length used_vvbns then
    fail_fsck "vol %d: volume map says %d used vvbns but %d are referenced" vid
      (Bitmap_file.used_count vmap) (Hashtbl.length used_vvbns);
  (* Container entries must exist only for used vvbns. *)
  for vvbn = 0 to Volume.vvbn_space v - 1 do
    let mapped = Volume.pvbn_of_vvbn v vvbn >= 0 in
    let used = Bitmap_file.mem vmap vvbn in
    if mapped <> used then
      fail_fsck "vol %d: vvbn %d container/%s activemap mismatch" vid vvbn
        (if used then "used" else "free")
  done

let audit tree ~check_volume =
  let geom = Disk.geometry tree.img.disk in
  let used_pvbns = Hashtbl.create 4096 in
  let claim pvbn what =
    if not (Geometry.vbn_valid geom pvbn) then fail_fsck "%s: invalid pvbn %d" what pvbn;
    (match Hashtbl.find_opt used_pvbns pvbn with
    | Some other -> fail_fsck "pvbn %d claimed by both %s and %s" pvbn other what
    | None -> Hashtbl.add used_pvbns pvbn what);
    if not (Bitmap_file.mem tree.agg_map pvbn) then
      fail_fsck "%s: pvbn %d not marked used in aggregate map" what pvbn
  in
  claim_all claim "aggmap chunk" (Bitmap_file.locations tree.agg_map);
  List.iter
    (fun (vid, v) ->
      audit_volume claim vid v;
      check_volume vid v)
    tree.vols;
  (* No leaked pvbns: everything marked used must have been claimed. *)
  if Bitmap_file.used_count tree.agg_map <> Hashtbl.length used_pvbns then
    fail_fsck "aggregate map says %d used pvbns but %d are referenced"
      (Bitmap_file.used_count tree.agg_map) (Hashtbl.length used_pvbns)
