open Wafl_sim

type t = {
  eng : Engine.t;
  raid : Wafl_fs.Layout.block Wafl_storage.Raid.t;
  obs : Wafl_obs.Trace.t;
  obs_on : bool;
  m_fill : Wafl_obs.Metrics.histo;
  (* Blocks accumulated since the last submit, in enqueue order, in
     parallel arrays: [pending_count] slots are used. *)
  mutable vbns : int array;
  mutable payloads : Wafl_fs.Layout.block array;
  mutable pending_count : int;
  mutable outstanding : int;
  mutable ios : int;
  mutable blocks : int;
}

(* Fills unused payload slots; never submitted. *)
let no_block = Wafl_fs.Layout.Data { vol = -1; file = -1; fbn = -1; content = 0L }

let create ?(obs = Wafl_obs.Trace.disabled) eng ~cost ~raid ~expected_buckets ~blocks =
  ignore cost;
  if expected_buckets < 0 || blocks < 0 then invalid_arg "Tetris.create: negative size";
  {
    eng;
    raid;
    obs;
    obs_on = Wafl_obs.Trace.enabled obs;
    m_fill = Wafl_obs.Metrics.histogram (Engine.metrics eng) "tetris.fill_blocks";
    vbns = Array.make blocks 0;
    payloads = Array.make blocks no_block;
    pending_count = 0;
    outstanding = expected_buckets;
    ios = 0;
    blocks = 0;
  }

(* The tetris dispatch structure is lock-protected in real WAFL (the I/O
   dispatch lock, whose cost the write path amortizes); writers from any
   affinity or cleaner may enqueue, so model it as atomic. *)
let dispatch_probe t =
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng
      ~shared:(Printf.sprintf "tetris.rg%d" (Wafl_storage.Raid.rg t.raid))

let enqueue t ~vbn ~payload =
  dispatch_probe t;
  let n = t.pending_count in
  if n = Array.length t.vbns then begin
    (* Past the [blocks] bound: grow rather than fail. *)
    let cap = max 16 (2 * n) in
    let vbns = Array.make cap 0 and payloads = Array.make cap no_block in
    Array.blit t.vbns 0 vbns 0 n;
    Array.blit t.payloads 0 payloads 0 n;
    t.vbns <- vbns;
    t.payloads <- payloads
  end;
  t.vbns.(n) <- vbn;
  t.payloads.(n) <- payload;
  t.pending_count <- n + 1

let pending_blocks t = t.pending_count

let submit_now t =
  dispatch_probe t;
  if t.pending_count > 0 then begin
    Wafl_obs.Metrics.observe t.m_fill (float_of_int t.pending_count);
    let blocks = t.pending_count in
    let vbns = Array.sub t.vbns 0 blocks and payloads = Array.sub t.payloads 0 blocks in
    (* Drop the submitted payloads so the buffer does not keep them alive. *)
    Array.fill t.payloads 0 blocks no_block;
    t.ios <- t.ios + 1;
    t.blocks <- t.blocks + blocks;
    t.pending_count <- 0;
    let submit () =
      Wafl_storage.Raid.submit t.raid ~vbns ~payloads ~on_complete:(fun () -> ())
    in
    if t.obs_on then
      Wafl_obs.Trace.with_span t.obs ~cat:"tetris" ~name:"stripe fill"
        ~num_args:[ ("blocks", float_of_int blocks) ]
        submit
    else submit ()
  end

let bucket_done t =
  dispatch_probe t;
  t.outstanding <- t.outstanding - 1;
  if t.outstanding <= 0 then submit_now t

let ios_submitted t = t.ios
let blocks_submitted t = t.blocks

(* Temperature classifier for the flash [streams] policy: every metafile
   class is hot (re-dirtied each CP), and a data block is hot when its
   observed rewrite interval — CP-placement count since this (vol, file,
   fbn) was last written — is shorter than the number of tracked blocks,
   i.e. shorter than the interval a uniformly-rewritten block would show.
   Segregating short-lived from long-lived pages keeps erase blocks
   death-time-homogeneous, which is what lowers GC write amplification
   ("Enlightening Flash Storage to Stream Writes by Objects").  The
   tracker is the write-allocator's equivalent of the per-write stream
   hints a host passes to a multi-stream SSD; it is deterministic, so a
   seeded run classifies identically on replay. *)
let make_temperature_stream () : Wafl_fs.Layout.block -> int =
  (* Last write index per block: vol -> file -> fbn-indexed vector (-1 =
     never written), plus the number of distinct blocks tracked.  Int
     keys keep the per-block lookup allocation-free. *)
  let files : (int, (int, Wafl_util.Intvec.t) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let tracked = ref 0 and n = ref 0 in
  let find_or_add tbl key make =
    match Hashtbl.find tbl key with
    | v -> v
    | exception Not_found ->
        let v = make () in
        Hashtbl.add tbl key v;
        v
  in
  function
  | Wafl_fs.Layout.Data { vol; file; fbn; _ } ->
      incr n;
      let per_vol = find_or_add files vol (fun () -> Hashtbl.create 16) in
      let vec = find_or_add per_vol file (fun () -> Wafl_util.Intvec.create ~default:(-1) ()) in
      let prev = Wafl_util.Intvec.get vec fbn in
      let hot = prev >= 0 && !n - prev < !tracked in
      if prev < 0 then incr tracked;
      Wafl_util.Intvec.set vec fbn !n;
      if hot then 1 else 0
  | Wafl_fs.Layout.Bmap _ | Wafl_fs.Layout.Inode_chunk _ | Wafl_fs.Layout.Container _
  | Wafl_fs.Layout.Vol_map _ | Wafl_fs.Layout.Agg_map _ ->
      1
