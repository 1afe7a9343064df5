open Wafl_storage
open Wafl_util

open Wafl_sim

let vvbn_region_bits = Layout.bits_per_map_block

(* Sanitizer domains of the map blocks covering a bit (DESIGN.md §4.7). *)
let pvbn_domain pvbn = Image.agg_map_domain ~index:(pvbn / Layout.bits_per_map_block)
let vvbn_domain ~vol vvbn = Image.vol_map_domain ~vol ~index:(vvbn / Layout.bits_per_map_block)

(* Test-only fault hooks, fixed per aggregate at creation (see the .mli). *)
type chaos = { publish_before_quiesce : bool; force_b2b : bool; inject_hard_dwell : float }

let no_chaos = { publish_before_quiesce = false; force_b2b = false; inject_hard_dwell = 0.0 }

type t = {
  eng : Engine.t;
  cost : Cost.t;
  chaos : chaos;
  geom : Geometry.t;
  tree : Image.tree; (* the persistent handle, RAID groups, activemap, volumes *)
  flash_on : bool; (* hoisted: any raid has an FTL attached *)
  aa_free_tbl : int array array; (* rg -> aa -> free blocks *)
  free_cell : int ref; (* cached [free_counter] cell: no hash per block *)
  held_cell : int ref; (* cached "snapshot_held_blocks" cell *)
  vol_free_cells : (int, int ref) Hashtbl.t; (* vid -> cached vvbn-free cell *)
  (* Union of every snapshot's held words, rebuilt whenever [snaps]
     changes, so [snapshot_held] is one bit test instead of a scan. *)
  mutable snap_union : Bitops.words;
  vvbn_region_free : (int, int array) Hashtbl.t; (* vol id -> region free counts *)
  counters : Counters.t;
  recently_freed : Bitops.words; (* bitmap over pvbns; never iterated *)
  mutable last_vol : Volume.t option; (* one-entry [volume] lookup cache *)
  cache : Buffer_cache.t;
  mutable snaps : Snapshot.t list;
  log_space : Sync.Waitq.t;
  mutable next_vol_id : int;
  mutable cp_in_progress : bool;
  (* Overload protection (DESIGN.md §4.11).  [cp_trigger] is installed by
     the CP engine so watermark admission can start an early CP;
     [log_inflight] counts writes admitted past [wait_for_log_space] but
     not yet appended, so admission sees NVRAM slots already spoken for. *)
  mutable cp_trigger : (unit -> unit) option;
  mutable log_inflight : int;
  m_exhausted : Metrics.counter;
  m_stall : Metrics.counter;
  m_hard_dwell : Metrics.counter;
}

let free_counter = "agg_free_blocks"
let vol_free_counter vid = Printf.sprintf "vol%d_free_vvbns" vid

let make_raids eng cost disk geom queue_depth obs flash_cfg =
  Array.init (Geometry.raid_group_count geom) (fun rg ->
      let flash =
        Option.map
          (fun cfg ->
            let lpns = Geometry.data_drives geom ~rg * Geometry.drive_blocks geom in
            Wafl_flash.Ftl.create ?obs eng ~cfg ~lpns ~rg)
          flash_cfg
      in
      Raid.create ?queue_depth ?obs ?flash eng ~cost ~disk ~rg)

let init_aa_free geom =
  Array.init (Geometry.raid_group_count geom) (fun rg ->
      Array.make (Geometry.aa_count geom)
        (Geometry.aa_stripes geom * Geometry.data_drives geom ~rg))

(* The one record builder: a fresh, empty mount of [img]; {!create}
   sizes a new image, {!recover} loads the superblock tree on top. *)
let mount ?(cache_blocks = 65536) ?queue_depth ?obs ~chaos eng ~cost img =
  let geom = Disk.geometry (Image.disk img) in
  let counters = Counters.create () in
  let m = Engine.metrics eng in
  Counters.set counters free_counter (Geometry.total_data_blocks geom);
  {
    eng;
    cost;
    chaos;
    geom;
    tree =
      {
        Image.img;
        eng;
        raids = make_raids eng cost (Image.disk img) geom queue_depth obs (Image.flash img);
        agg_map = Bitmap_file.create ~bits:(Geometry.total_data_blocks geom);
        vols = [];
        vols_tbl = Hashtbl.create 8;
      };
    flash_on = Image.flash img <> None;
    aa_free_tbl = init_aa_free geom;
    vol_free_cells = Hashtbl.create 8;
    free_cell = Counters.cell counters free_counter;
    held_cell = Counters.cell counters "snapshot_held_blocks";
    snap_union = Bytes.empty;
    vvbn_region_free = Hashtbl.create 8;
    counters;
    recently_freed = Bitops.make_words ((Geometry.total_data_blocks geom + 63) / 64);
    last_vol = None;
    cache = Buffer_cache.create ~capacity:cache_blocks;
    snaps = [];
    log_space = Sync.Waitq.create eng;
    next_vol_id = 0;
    cp_in_progress = false;
    cp_trigger = None;
    log_inflight = 0;
    m_exhausted = Metrics.counter m "nvlog.exhausted_writes";
    m_stall = Metrics.counter m "nvlog.stall_us";
    m_hard_dwell = Metrics.counter m "nvlog.hard_dwell_us";
  }

let create ?nvlog_half ?nvlog_watermarks ?cache_blocks ?queue_depth ?obs ?flash
    ?(chaos = no_chaos) eng ~cost ~geometry () =
  mount ?cache_blocks ?queue_depth ?obs ~chaos eng ~cost
    (Image.create ?nvlog_half ?nvlog_watermarks ?flash geometry)

let engine t = t.eng
let cost t = t.cost
let chaos t = t.chaos
let geometry t = t.geom
let tree t = t.tree
let disk t = Image.disk t.tree.img
let raid t ~rg = t.tree.raids.(rg)
let raid_groups t = t.tree.raids
let nvlog t = Image.nvlog t.tree.img
let counters t = t.counters
let agg_map t = t.tree.agg_map

(* --- volumes and files --- *)

(* The NVRAM log is an append-only device with its own internal ordering
   (a lock in real WAFL whose cost the write path amortizes); appends
   from different affinities are legal, so model it as atomic. *)
let log_append t entry =
  if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.nvlog";
  Nvlog.append (nvlog t) entry

let volume t vid =
  match t.last_vol with
  | Some v when Volume.id v = vid -> t.last_vol
  | _ ->
      let r = Hashtbl.find_opt t.tree.vols_tbl vid in
      (match r with Some _ -> t.last_vol <- r | None -> ());
      r

let volume_exn t vid =
  match volume t vid with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Aggregate: no volume %d" vid)

let volumes t = List.map snd t.tree.vols

let region_count vvbn_space = (vvbn_space + vvbn_region_bits - 1) / vvbn_region_bits

(* Summaries of a volume in the tree, derived from its volume map: the
   free-vvbn regions and counter. *)
let init_volume_summaries t vol =
  let vid = Volume.id vol and vmap = Volume.vol_map vol in
  if vid >= t.next_vol_id then t.next_vol_id <- vid + 1;
  let free r =
    let lo = r * vvbn_region_bits in
    let hi = min (Volume.vvbn_space vol - 1) (((r + 1) * vvbn_region_bits) - 1) in
    Bitmap_file.count_free_in vmap ~lo ~hi
  in
  Hashtbl.replace t.vvbn_region_free vid (Array.init (region_count (Volume.vvbn_space vol)) free);
  Counters.set t.counters (vol_free_counter vid) (Bitmap_file.free_count vmap);
  Hashtbl.replace t.vol_free_cells vid (Counters.cell t.counters (vol_free_counter vid))

let create_volume t ~vvbn_space =
  let vid = t.next_vol_id in
  let vol = Volume.create ~id:vid ~vvbn_space in
  Image.add_volume t.tree vol;
  init_volume_summaries t vol;
  ignore (log_append t (Nvlog.Create_vol { vol = vid; vvbn_space }));
  vol

let create_file t ~vol =
  let v = volume_exn t vol in
  let fid = Volume.fresh_file_id v in
  let f = File.create ~vol ~id:fid in
  Volume.add_file v f;
  ignore (log_append t (Nvlog.Create_file { vol; file = fid }));
  f

let delete_file t ~vol ~file =
  let v = volume_exn t vol in
  let f = Volume.file_exn v file in
  Volume.mark_deleted v f;
  ignore (log_append t (Nvlog.Delete_file { vol; file }))

let write t ~vol ~file ~fbn ~content =
  (* Consume this write's admission reservation (watermark mode only;
     zero and untouched otherwise). *)
  if t.log_inflight > 0 then t.log_inflight <- t.log_inflight - 1;
  if Nvlog.is_exhausted (nvlog t) then begin
    (* Typed graceful shed: nothing was logged or applied, so the client
       simply never gets an acknowledgement for this op.  Unreachable
       once watermark back-pressure is on — admission stops at the hard
       watermark with headroom to spare. *)
    Metrics.incr t.m_exhausted;
    `Log_exhausted
  end
  else begin
    let v = volume_exn t vol in
    let f = Volume.file_exn v file in
    File.write f ~fbn ~content;
    Volume.note_dirty v f;
    match log_append t (Nvlog.Write { vol; file; fbn; content }) with
    | `Ok -> `Ok
    | `Half_full -> `Log_half_full
  end

let buffer_cache t = t.cache

(* Route tetris payloads to flash write streams (no-op without a media
   model; installed by Walloc when the [streams] policy is on). *)
let set_stream_classifier t f = Array.iter (fun r -> Raid.set_stream_of r f) t.tree.raids

(* Like [read] but reports whether the on-disk path hit the buffer cache;
   the caller charges the miss cost.  [`Buffered] means the block was
   served from a dirty buffer and never reached the disk path. *)
let read_cached_status t ~vol ~file ~fbn =
  let v = volume_exn t vol in
  let f = Volume.file_exn v file in
  match File.read_cached f ~fbn with
  | Some c -> (Some c, `Buffered)
  | None -> (
      match File.vvbn_of_fbn f fbn with
      | -1 -> (None, `Buffered)
      | vvbn -> (
          match Volume.pvbn_of_vvbn v vvbn with
          | -1 ->
              raise
                (Image.Corruption
                   (Printf.sprintf "vol %d file %d fbn %d: vvbn %d has no container entry"
                      vol file fbn vvbn))
          | pvbn -> (
              if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.buffer_cache";
              let status = if Buffer_cache.probe t.cache pvbn then `Hit else `Miss in
              (Some (Image.read_data t.tree ~what:"" ~vol ~file ~fbn pvbn), status))))

let read t ~vol ~file ~fbn = fst (read_cached_status t ~vol ~file ~fbn)

let set_cp_trigger t trigger = t.cp_trigger <- Some trigger
let request_cp t = match t.cp_trigger with Some trigger -> trigger () | None -> ()
let note_stall t dt = if dt > 0.0 then Metrics.addf t.m_stall dt
let note_hard_dwell t dt = if dt > 0.0 then Metrics.addf t.m_hard_dwell dt

let wait_for_log_space t =
  if t.chaos.inject_hard_dwell > 0.0 then note_hard_dwell t t.chaos.inject_hard_dwell;
  let nv = nvlog t in
  match Nvlog.watermarks nv with
  | None ->
      (* Legacy blanket throttle: park only while a CP is draining and
         the filling half is nearly full. *)
      if Nvlog.is_nearly_full nv && t.cp_in_progress then begin
        let w0 = Engine.now t.eng in
        while Nvlog.is_nearly_full nv && t.cp_in_progress do
          Sync.Waitq.wait t.log_space
        done;
        note_stall t (Engine.now t.eng -. w0)
      end
  | Some wm ->
      (* Watermark admission: fill counts NVRAM occupancy plus writes
         already admitted but not yet appended (their messages are in
         flight through the scheduler), so a burst cannot slip past the
         throttle before any of its appends land. *)
      if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.nvlog";
      let cap = float_of_int (Nvlog.capacity nv) in
      let fill () = float_of_int (Nvlog.total_pending nv + t.log_inflight) /. cap in
      if fill () >= wm.Nvlog.soft then begin
        let w0 = Engine.now t.eng in
        request_cp t;
        let h0 = Engine.now t.eng in
        while
          fill () >= wm.Nvlog.hard && (t.cp_in_progress || Option.is_some t.cp_trigger)
        do
          (* Re-arm the CP request each round: the commit that woke us may
             have left the log above the hard mark. *)
          request_cp t;
          Sync.Waitq.wait t.log_space
        done;
        note_hard_dwell t (Engine.now t.eng -. h0);
        (* Reserve before pacing, with no yield since the hard check: a
           writer sleeping out its pacing delay must already count
           against fill, or a wave of simultaneously-woken writers would
           all pass the hard check and overrun the log together.  With
           check-and-reserve atomic, admissions stop within one record
           of the hard mark and exhaustion is unreachable. *)
        t.log_inflight <- t.log_inflight + 1;
        (* Soft region: pace the admitted write against CP progress with a
           deterministic delay growing toward [pace] at the hard mark. *)
        let f = fill () in
        if f >= wm.Nvlog.soft then
          Engine.sleep
            (wm.Nvlog.pace
            *. Float.min 1.0 ((f -. wm.Nvlog.soft) /. (wm.Nvlog.hard -. wm.Nvlog.soft)));
        note_stall t (Engine.now t.eng -. w0)
      end
      else t.log_inflight <- t.log_inflight + 1

(* --- physical allocation state --- *)

(* Add [delta] to the free count of the Allocation Area holding [pvbn]. *)
let adjust_aa_free t pvbn delta =
  let counts = t.aa_free_tbl.(Geometry.rg_of t.geom pvbn) in
  let aa = Geometry.aa_of_dbn t.geom (Geometry.dbn_of t.geom pvbn) in
  counts.(aa) <- counts.(aa) + delta

let commit_alloc_pvbn t pvbn =
  if Engine.sanitizing t.eng then Engine.probe_locked t.eng ~shared:(pvbn_domain pvbn) Race.Write;
  Bitmap_file.set t.tree.agg_map pvbn;
  adjust_aa_free t pvbn (-1);
  t.free_cell := !(t.free_cell) - 1

let vol_free_cell t vid =
  match Hashtbl.find_opt t.vol_free_cells vid with
  | Some c -> c
  | None -> invalid_arg "Aggregate: unregistered volume"

let snapshot_held t pvbn =
  pvbn lsr 6 < Bitops.word_count t.snap_union && Bitops.test_bit t.snap_union pvbn

let rebuild_snap_union t =
  let len =
    List.fold_left (fun m s -> max m (Bitops.word_count (Snapshot.held_words s))) 0 t.snaps
  in
  let u = Bitops.make_words len in
  List.iter
    (fun s ->
      let held = Snapshot.held_words s in
      for i = 0 to Bitops.word_count held - 1 do
        Bitops.set_word u i (Int64.logor (Bitops.word u i) (Bitops.word held i))
      done)
    t.snaps;
  t.snap_union <- u

let commit_free_pvbn t pvbn =
  if Engine.sanitizing t.eng then begin
    Engine.probe_locked t.eng ~shared:(pvbn_domain pvbn) Race.Write;
    Engine.probe_atomic t.eng ~shared:"fs.buffer_cache"
  end;
  Bitmap_file.clear t.tree.agg_map pvbn;
  (* The block's content is dead; a future occupant must read from disk. *)
  Buffer_cache.invalidate t.cache pvbn;
  if snapshot_held t pvbn then
    (* The block leaves the active tree but a snapshot still references
       it: not reusable, not free space. *)
    t.held_cell := !(t.held_cell) + 1
  else begin
    adjust_aa_free t pvbn 1;
    t.free_cell := !(t.free_cell) + 1
  end;
  Bitops.set_bit t.recently_freed pvbn;
  (* TRIM: the flash page backing a freed block is dead — without this
     the FTL's GC would keep relocating pages the file system no longer
     references, and the device-fill axis would only ever grow. *)
  if t.flash_on then
    Raid.trim t.tree.raids.(Geometry.rg_of t.geom pvbn) pvbn

let pvbn_allocatable t pvbn =
  (not (Bitmap_file.mem t.tree.agg_map pvbn))
  && (not (Bitops.test_bit t.recently_freed pvbn))
  && not (snapshot_held t pvbn)

let region_free t vol =
  match Hashtbl.find_opt t.vvbn_region_free (Volume.id vol) with
  | Some a -> a
  | None -> invalid_arg "Aggregate: unregistered volume"

let commit_alloc_vvbn t ~vol vvbn =
  if Engine.sanitizing t.eng then
    Engine.probe_locked t.eng ~shared:(vvbn_domain ~vol:(Volume.id vol) vvbn) Race.Write;
  Bitmap_file.set (Volume.vol_map vol) vvbn;
  let regions = region_free t vol in
  let r = vvbn / vvbn_region_bits in
  regions.(r) <- regions.(r) - 1;
  decr (vol_free_cell t (Volume.id vol))

let commit_free_vvbn t ~vol vvbn =
  if Engine.sanitizing t.eng then
    Engine.probe_locked t.eng ~shared:(vvbn_domain ~vol:(Volume.id vol) vvbn) Race.Write;
  Bitmap_file.clear (Volume.vol_map vol) vvbn;
  let regions = region_free t vol in
  let r = vvbn / vvbn_region_bits in
  regions.(r) <- regions.(r) + 1;
  Volume.note_freed_vvbn vol vvbn;
  incr (vol_free_cell t (Volume.id vol))

let vvbn_allocatable t ~vol vvbn =
  ignore t;
  (not (Bitmap_file.mem (Volume.vol_map vol) vvbn)) && Volume.vvbn_reusable vol vvbn

let select_best counts ~exclude =
  let best = ref (-1) and best_free = ref 0 in
  Array.iteri
    (fun i free ->
      if free > !best_free && not (List.mem i exclude) then begin
        best := i;
        best_free := free
      end)
    counts;
  if !best < 0 then None else Some !best

let select_aa t ~rg ~exclude = select_best t.aa_free_tbl.(rg) ~exclude
let aa_free t ~rg ~aa = t.aa_free_tbl.(rg).(aa)
let select_vvbn_region t ~vol ~exclude = select_best (region_free t vol) ~exclude
let vvbn_region_free t ~vol ~region = (region_free t vol).(region)

(* --- consistency-point support --- *)

let cp_snapshot t =
  if t.cp_in_progress then invalid_arg "Aggregate.cp_snapshot: CP already running";
  t.cp_in_progress <- true;
  if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.nvlog";
  Nvlog.cp_begin (nvlog t);
  List.map (fun (_, v) -> (v, Volume.cp_snapshot v)) t.tree.vols

(* The CP's superblock is published ({!Image.publish}): thaw the frees
   it froze and re-admit writers. *)
let cp_done t =
  Bitops.clear_words t.recently_freed;
  List.iter
    (fun (_, v) ->
      Volume.clear_recent_frees v;
      Volume.cp_done v)
    t.tree.vols;
  t.cp_in_progress <- false;
  ignore (Sync.Waitq.wake_all t.log_space)

(* --- snapshots --- *)

let snapshots t = t.snaps
let find_snapshot t name = List.find_opt (fun s -> Snapshot.name s = name) t.snaps

let create_snapshot t ~name =
  if t.cp_in_progress then invalid_arg "Aggregate.create_snapshot: CP in flight";
  let sb =
    match Image.superblock t.tree.img with
    | None -> invalid_arg "Aggregate.create_snapshot: no consistency point committed yet"
    | Some sb -> sb
  in
  if find_snapshot t name <> None then
    invalid_arg (Printf.sprintf "Aggregate.create_snapshot: %S already exists" name);
  (* Between CPs the in-memory activemap equals the on-disk one, so its
     words are exactly the block set the last CP's tree references. *)
  let snap = Snapshot.make ~name ~sb ~words:(Bitmap_file.snapshot_words t.tree.agg_map) in
  t.snaps <- t.snaps @ [ snap ];
  rebuild_snap_union t;
  snap

(* Blocks that become reusable when [snap] goes away: held by it, free in
   the active map, and not held by any remaining snapshot. *)
let delete_snapshot t snap =
  if t.cp_in_progress then invalid_arg "Aggregate.delete_snapshot: CP in flight";
  if not (List.memq snap t.snaps) then invalid_arg "Aggregate.delete_snapshot: unknown snapshot";
  t.snaps <- List.filter (fun s -> s != snap) t.snaps;
  rebuild_snap_union t;
  let words = Snapshot.held_words snap in
  let active = Bitmap_file.snapshot_words t.tree.agg_map in
  let released = ref 0 in
  for w = 0 to Bitops.word_count words - 1 do
    let candidates = Int64.logand (Bitops.word words w) (Int64.lognot (Bitops.word active w)) in
    if candidates <> 0L then
      for i = 0 to 63 do
        if Bitops.get candidates i then begin
          let pvbn = (w * 64) + i in
          if Geometry.vbn_valid t.geom pvbn && not (snapshot_held t pvbn) then begin
            adjust_aa_free t pvbn 1;
            incr released
          end
        end
      done
  done;
  Counters.add t.counters free_counter !released;
  Counters.add t.counters "snapshot_held_blocks" (- !released)

(* --- crash and recovery --- *)

let crash t = t.tree.img

let apply_op t = function
  | Nvlog.Create_vol { vol; vvbn_space } ->
      if volume t vol = None then begin
        let v = Volume.create ~id:vol ~vvbn_space in
        Image.add_volume t.tree v;
        init_volume_summaries t v
      end
  | Nvlog.Create_file { vol; file } -> (
      let v = volume_exn t vol in
      match Volume.file v file with
      | Some _ -> ()
      | None -> Volume.add_file v (File.create ~vol ~id:file))
  | Nvlog.Write { vol; file; fbn; content } ->
      let v = volume_exn t vol in
      let f = Volume.file_exn v file in
      File.write f ~fbn ~content;
      Volume.note_dirty v f
  | Nvlog.Delete_file { vol; file } ->
      let v = volume_exn t vol in
      Volume.mark_deleted v (Volume.file_exn v file)

let recompute_aa_free t =
  let geom = t.geom in
  for rg = 0 to Geometry.raid_group_count geom - 1 do
    for aa = 0 to Geometry.aa_count geom - 1 do
      let lo_dbn, hi_dbn = Geometry.aa_dbn_range geom ~aa in
      let free = ref 0 in
      List.iter
        (fun (drive, _) ->
          let lo = Geometry.vbn_of geom ~rg ~drive ~dbn:lo_dbn in
          let hi = Geometry.vbn_of geom ~rg ~drive ~dbn:hi_dbn in
          free := !free + Bitmap_file.count_free_in t.tree.agg_map ~lo ~hi)
        (Geometry.drives_of_rg geom ~rg);
      t.aa_free_tbl.(rg).(aa) <- !free
    done
  done

(* Summaries of a freshly loaded tree; snapshot-held blocks are map-free
   but neither allocatable nor free space. *)
let derive_summaries t =
  List.iter (fun (_, v) -> init_volume_summaries t v) t.tree.vols;
  rebuild_snap_union t;
  recompute_aa_free t;
  let held = ref 0 in
  for pvbn = 0 to Geometry.total_data_blocks t.geom - 1 do
    if (not (Bitmap_file.mem t.tree.agg_map pvbn)) && snapshot_held t pvbn then begin
      incr held;
      adjust_aa_free t pvbn (-1)
    end
  done;
  Counters.set t.counters "snapshot_held_blocks" !held;
  Counters.set t.counters free_counter (Bitmap_file.free_count t.tree.agg_map - !held)

(* The FTL's L2P is volatile: re-derive device fill from the recovered
   activemap, as the real device rebuilds its map from NAND metadata.
   (Create-time prefill was already re-applied by Ftl.create; mapping a
   used pvbn over an aged page just remaps it.) *)
let preload_ftls t =
  let geom = t.geom in
  let per_rg = Array.map (fun _ -> ref []) t.tree.raids in
  for pvbn = Geometry.total_data_blocks geom - 1 downto 0 do
    if Bitmap_file.mem t.tree.agg_map pvbn then begin
      let lpn = (Geometry.drive_of geom pvbn * Geometry.drive_blocks geom) + Geometry.dbn_of geom pvbn in
      let cell = per_rg.(Geometry.rg_of geom pvbn) in
      cell := lpn :: !cell
    end
  done;
  Array.iteri
    (fun rg cell ->
      match Raid.flash t.tree.raids.(rg) with
      | Some ftl -> Wafl_flash.Ftl.preload ftl !cell
      | None -> ())
    per_rg

let recover ?cache_blocks ?queue_depth ?obs eng ~cost img =
  let t = mount ?cache_blocks ?queue_depth ?obs ~chaos:no_chaos eng ~cost img in
  t.snaps <- Image.load t.tree;
  if Image.superblock img <> None then derive_summaries t;
  (* Replay the surviving NVRAM log on top of the recovered tree. *)
  let ops = Nvlog.replay_ops (Image.nvlog img) in
  Nvlog.recover_reset (Image.nvlog img);
  List.iter (apply_op t) ops;
  if t.flash_on then preload_ftls t;
  t

(* --- integrity checking --- *)

let fail_fsck fmt = Printf.ksprintf (fun s -> failwith ("fsck: " ^ s)) fmt

(* The summary checks recompute their expected values from the maps
   here, independently of [derive_summaries]: fsck is the reference. *)
let fsck t =
  if t.cp_in_progress then fail_fsck "called with a CP in flight";
  Image.audit t.tree ~check_volume:(fun vid v ->
      let counter = Counters.read t.counters (vol_free_counter vid) in
      let free = Bitmap_file.free_count (Volume.vol_map v) in
      if counter <> free then
        fail_fsck "vol %d: free counter %d but volume map says %d" vid counter free);
  (* Snapshot-held blocks are map-free but not free space. *)
  let held_only = ref 0 in
  if t.snaps <> [] then
    for pvbn = 0 to Geometry.total_data_blocks t.geom - 1 do
      if (not (Bitmap_file.mem t.tree.agg_map pvbn)) && snapshot_held t pvbn then incr held_only
    done;
  let counter = Counters.read t.counters free_counter in
  if counter <> Bitmap_file.free_count t.tree.agg_map - !held_only then
    fail_fsck "aggregate free counter %d but activemap says %d (%d snapshot-held)" counter
      (Bitmap_file.free_count t.tree.agg_map) !held_only;
  let held_counter = Counters.read t.counters "snapshot_held_blocks" in
  if held_counter <> !held_only then
    fail_fsck "snapshot-held counter %d but %d blocks are held-only" held_counter !held_only;
  (* AA summary consistency. *)
  for rg = 0 to Geometry.raid_group_count t.geom - 1 do
    for aa = 0 to Geometry.aa_count t.geom - 1 do
      let lo_dbn, hi_dbn = Geometry.aa_dbn_range t.geom ~aa in
      let free = ref 0 in
      List.iter
        (fun (drive, _) ->
          let lo = Geometry.vbn_of t.geom ~rg ~drive ~dbn:lo_dbn in
          let hi = Geometry.vbn_of t.geom ~rg ~drive ~dbn:hi_dbn in
          free := !free + Bitmap_file.count_free_in t.tree.agg_map ~lo ~hi;
          if t.snaps <> [] then
            for pvbn = lo to hi do
              if (not (Bitmap_file.mem t.tree.agg_map pvbn)) && snapshot_held t pvbn then decr free
            done)
        (Geometry.drives_of_rg t.geom ~rg);
      if !free <> t.aa_free_tbl.(rg).(aa) then
        fail_fsck "rg %d aa %d: summary says %d free, activemap says %d" rg aa
          t.aa_free_tbl.(rg).(aa) !free
    done
  done
