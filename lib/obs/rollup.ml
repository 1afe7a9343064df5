module Engine = Wafl_sim.Engine
module Metrics = Wafl_sim.Metrics
module Histogram = Wafl_util.Histogram

type config = {
  window_us : float;
  windows : int;
  vol_budget_bytes : int;
  lat_lo : float;
  lat_hi : float;
  lat_buckets_per_decade : int;
}

let default_config =
  {
    window_us = 100_000.0;
    windows = 8;
    vol_budget_bytes = 4096;
    lat_lo = 1.0;
    lat_hi = 1e7;
    lat_buckets_per_decade = 4;
  }

type vol_row = {
  vr_writes : int;
  vr_admitted : int;
  vr_throttled : int;
  vr_shed : int;
  vr_completed : int;
  vr_backlog : int;
  vr_lat : Histogram.t;
}

type window = {
  w_seq : int;
  w_start : float;
  w_end : float;
  w_counters : (string * float) list;
  w_gauges : (string * float) list;
  w_sketches : (string * Histogram.t) list;
  w_vols : (int * vol_row) list;
}

type snapshot = { s_window_us : float; s_windows : window list }

(* Open-window per-volume accumulator; sealed into an immutable vol_row. *)
type acc = {
  mutable a_writes : int;
  mutable a_admitted : int;
  mutable a_throttled : int;
  mutable a_shed : int;
  mutable a_completed : int;
  a_lat : Histogram.t;
}

(* Cumulative per-volume admitted/completed, persisted across windows so a
   quiet volume with outstanding backlog still gets a row. *)
type totals = { mutable t_admitted : int; mutable t_completed : int }

(* Sources are registry names, read at seal time; each counter and sketch
   keeps its value at the previous seal. *)
type t = {
  eng : Engine.t;
  cfg : config;
  reg : Metrics.t;  (* the engine's registry *)
  counters : (string * float ref) list;
  gauges : string list;
  sketches : (string * Histogram.t option ref) list;
  mutable seal_cbs : (t -> window -> unit) list;  (* reverse registration order *)
  vols : (int, acc) Hashtbl.t;  (* open window *)
  totals : (int, totals) Hashtbl.t;
  mutable ring : window list;  (* newest first, length <= cfg.windows *)
  mutable cur_seq : int;  (* grid index of the open window *)
}

let mk_lat cfg =
  Histogram.create ~lo:cfg.lat_lo ~hi:cfg.lat_hi
    ~buckets_per_decade:cfg.lat_buckets_per_decade ()

let vol_window_bytes cfg =
  (* Sealed row: record header + 7 fields; plus the latency sketch. *)
  (8 * 8) + Histogram.approx_bytes (mk_lat cfg)

let seq_of cfg now = int_of_float (Float.floor (now /. cfg.window_us))

let create ?(config = default_config) ?(counters = []) ?(gauges = []) ?(sketches = []) eng =
  let cfg = config in
  if cfg.window_us <= 0.0 || cfg.windows <= 0 then invalid_arg "Rollup.create";
  if (cfg.windows + 1) * vol_window_bytes cfg > cfg.vol_budget_bytes then
    invalid_arg "Rollup.create: ring exceeds vol_budget_bytes";
  let reg = Engine.metrics eng in
  {
    eng;
    cfg;
    reg;
    counters = List.map (fun name -> (name, ref (Metrics.counter_value reg name))) counters;
    gauges;
    sketches = List.map (fun name -> (name, ref None)) sketches;
    seal_cbs = [];
    vols = Hashtbl.create 64;
    totals = Hashtbl.create 64;
    ring = [];
    cur_seq = seq_of cfg (Engine.now eng);
  }

let config t = t.cfg

let on_seal t cb = t.seal_cbs <- cb :: t.seal_cbs

let by_name (a, _) (b, _) = compare a b

let seal_window t seq =
  let counters =
    List.map
      (fun (name, prev) ->
        let v = Metrics.counter_value t.reg name in
        let d = v -. !prev in
        prev := v;
        (name, d))
      t.counters
    |> List.sort by_name
  in
  let gauges =
    List.map (fun name -> (name, Metrics.gauge_value t.reg name)) t.gauges |> List.sort by_name
  in
  let sketches =
    List.filter_map
      (fun (name, prev) ->
        match Metrics.histo t.reg name with
        | None -> None
        | Some h ->
            let d =
              match !prev with
              | None -> Histogram.copy h  (* instrument created after attach *)
              | Some p -> Histogram.delta ~baseline:p h
            in
            prev := Some (Histogram.copy h);
            Some (name, d))
      t.sketches
    |> List.sort by_name
  in
  let backlog vol =
    match Hashtbl.find_opt t.totals vol with
    | None -> 0
    | Some tot -> tot.t_admitted - tot.t_completed
  in
  let active =
    Hashtbl.fold (* lint-ok: sorted before use *)
      (fun vol a rows ->
        ( vol,
          {
            vr_writes = a.a_writes;
            vr_admitted = a.a_admitted;
            vr_throttled = a.a_throttled;
            vr_shed = a.a_shed;
            vr_completed = a.a_completed;
            vr_backlog = backlog vol;
            vr_lat = a.a_lat;
          } )
        :: rows)
      t.vols []
  in
  (* Quiet volumes with outstanding backlog still get a (zero-activity) row. *)
  let quiet =
    Hashtbl.fold (* lint-ok: sorted before use *)
      (fun vol _tot rows ->
        if Hashtbl.mem t.vols vol || backlog vol = 0 then rows
        else
          ( vol,
            {
              vr_writes = 0;
              vr_admitted = 0;
              vr_throttled = 0;
              vr_shed = 0;
              vr_completed = 0;
              vr_backlog = backlog vol;
              vr_lat = mk_lat t.cfg;
            } )
          :: rows)
      t.totals []
  in
  let vols = List.sort (fun (a, _) (b, _) -> compare a b) (active @ quiet) in
  Hashtbl.reset t.vols;
  let w =
    {
      w_seq = seq;
      w_start = float_of_int seq *. t.cfg.window_us;
      w_end = float_of_int (seq + 1) *. t.cfg.window_us;
      w_counters = counters;
      w_gauges = gauges;
      w_sketches = sketches;
      w_vols = vols;
    }
  in
  t.ring <- w :: t.ring;
  (if List.length t.ring > t.cfg.windows then
     t.ring <- List.filteri (fun i _ -> i < t.cfg.windows) t.ring);
  List.iter (fun cb -> cb t w) (List.rev t.seal_cbs)

(* Lazy sealing: called from every write-side entry point.  The rollup's
   tables are touched by every client fiber, so declare them shared. *)
let roll t =
  Engine.probe_atomic t.eng ~shared:"obs.rollup";
  let now = Engine.now t.eng in
  let due = seq_of t.cfg now in
  while t.cur_seq < due do
    seal_window t t.cur_seq;
    t.cur_seq <- t.cur_seq + 1
  done

let acc_of t vol =
  match Hashtbl.find_opt t.vols vol with
  | Some a -> a
  | None ->
      let a =
        { a_writes = 0; a_admitted = 0; a_throttled = 0; a_shed = 0; a_completed = 0;
          a_lat = mk_lat t.cfg }
      in
      Hashtbl.replace t.vols vol a;
      a

let totals_of t vol =
  match Hashtbl.find_opt t.totals vol with
  | Some tot -> tot
  | None ->
      let tot = { t_admitted = 0; t_completed = 0 } in
      Hashtbl.replace t.totals vol tot;
      tot

let observe_write t ~vol lat =
  roll t;
  let a = acc_of t vol in
  a.a_writes <- a.a_writes + 1;
  Histogram.add a.a_lat lat

let count t ~vol kind =
  roll t;
  let a = acc_of t vol in
  (match kind with
  | `Admitted ->
      a.a_admitted <- a.a_admitted + 1;
      let tot = totals_of t vol in
      tot.t_admitted <- tot.t_admitted + 1
  | `Throttled -> a.a_throttled <- a.a_throttled + 1
  | `Shed -> a.a_shed <- a.a_shed + 1
  | `Completed ->
      a.a_completed <- a.a_completed + 1;
      let tot = totals_of t vol in
      tot.t_completed <- tot.t_completed + 1);
  ()

let recent t n = List.filteri (fun i _ -> i < n) t.ring

let snapshot t =
  roll t;
  { s_window_us = t.cfg.window_us; s_windows = List.rev t.ring }

(* --- JSON ---------------------------------------------------------------- *)

module J = Json

let jget k j =
  match J.member k j with Some v -> v | None -> invalid_arg ("Rollup: missing key " ^ k)

let jnum k j =
  match J.to_float (jget k j) with
  | Some f -> f
  | None -> invalid_arg ("Rollup: non-numeric key " ^ k)

let jlist k j =
  match J.to_list (jget k j) with
  | Some l -> l
  | None -> invalid_arg ("Rollup: non-array key " ^ k)

let jfloat j = match J.to_float j with Some f -> f | None -> invalid_arg "Rollup: non-number"

(* Serialized numbers are pre-rounded to the printer's 3-decimal
   resolution, so serialize(parse(s)) = s byte-for-byte: without this, a
   near-integral accumulation like 444.0000001 prints as "444.000" but
   re-parses to 444.0 and re-prints as "444". *)
let jnum3 v = J.Num (Float.round (v *. 1000.0) /. 1000.0)

let hist_to_json h =
  J.Obj
    [
      ("lo", jnum3 (Histogram.lo h));
      ("bpd", J.Num (float_of_int (Histogram.buckets_per_decade h)));
      ("counts", J.Arr (Array.to_list (Array.map (fun c -> J.Num (float_of_int c)) (Histogram.counts h))));
      ("sum", jnum3 (Histogram.sum h));
      ("max", jnum3 (Histogram.max_seen h));
    ]

let hist_of_json j =
  let counts =
    jlist "counts" j |> List.map (fun c -> int_of_float (jfloat c)) |> Array.of_list
  in
  Histogram.of_counts ~lo:(jnum "lo" j)
    ~buckets_per_decade:(int_of_float (jnum "bpd" j))
    ~counts ~sum:(jnum "sum" j) ~max_seen:(jnum "max" j)

let kv_to_json kvs = J.Obj (List.map (fun (k, v) -> (k, jnum3 v)) kvs)
let kv_of_json j = match j with J.Obj kvs -> List.map (fun (k, v) -> (k, jfloat v)) kvs | _ -> []

let vol_to_json (vol, r) =
  J.Obj
    [
      ("vol", J.Num (float_of_int vol));
      ("writes", J.Num (float_of_int r.vr_writes));
      ("admitted", J.Num (float_of_int r.vr_admitted));
      ("throttled", J.Num (float_of_int r.vr_throttled));
      ("shed", J.Num (float_of_int r.vr_shed));
      ("completed", J.Num (float_of_int r.vr_completed));
      ("backlog", J.Num (float_of_int r.vr_backlog));
      ("lat", hist_to_json r.vr_lat);
    ]

let vol_of_json j =
  let i k = int_of_float (jnum k j) in
  ( i "vol",
    {
      vr_writes = i "writes";
      vr_admitted = i "admitted";
      vr_throttled = i "throttled";
      vr_shed = i "shed";
      vr_completed = i "completed";
      vr_backlog = i "backlog";
      vr_lat = hist_of_json (jget "lat" j);
    } )

let window_to_json w =
  J.Obj
    [
      ("seq", J.Num (float_of_int w.w_seq));
      ("start", jnum3 w.w_start);
      ("end", jnum3 w.w_end);
      ("counters", kv_to_json w.w_counters);
      ("gauges", kv_to_json w.w_gauges);
      ("sketches", J.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) w.w_sketches));
      ("vols", J.Arr (List.map vol_to_json w.w_vols));
    ]

let window_of_json j =
  {
    w_seq = int_of_float (jnum "seq" j);
    w_start = jnum "start" j;
    w_end = jnum "end" j;
    w_counters = kv_of_json (jget "counters" j);
    w_gauges = kv_of_json (jget "gauges" j);
    w_sketches =
      (match jget "sketches" j with
      | J.Obj kvs -> List.map (fun (k, h) -> (k, hist_of_json h)) kvs
      | _ -> []);
    w_vols = jlist "vols" j |> List.map vol_of_json;
  }

let snapshot_to_json s =
  J.Obj
    [
      ("schema", J.Str "wafl-rollup/1");
      ("window_us", jnum3 s.s_window_us);
      ("windows", J.Arr (List.map window_to_json s.s_windows));
    ]

let snapshot_of_json j =
  {
    s_window_us = jnum "window_us" j;
    s_windows = jlist "windows" j |> List.map window_of_json;
  }

(* --- deterministic shard merge ------------------------------------------- *)

let merge_kvs a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | None -> Hashtbl.replace tbl k v
      | Some v0 -> Hashtbl.replace tbl k (v0 +. v))
    b;
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] (* lint-ok: sorted before use *)
  |> List.sort by_name

let merge_sketches a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, h) -> Hashtbl.replace tbl k h) a;
  List.iter
    (fun (k, h) ->
      match Hashtbl.find_opt tbl k with
      | None -> Hashtbl.replace tbl k h
      | Some h0 -> Hashtbl.replace tbl k (Histogram.merge h0 h))
    b;
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] (* lint-ok: sorted before use *)
  |> List.sort by_name

let merge_windows a b =
  {
    a with
    w_counters = merge_kvs a.w_counters b.w_counters;
    w_gauges = merge_kvs a.w_gauges b.w_gauges;
    w_sketches = merge_sketches a.w_sketches b.w_sketches;
    w_vols = List.sort (fun (x, _) (y, _) -> compare x y) (a.w_vols @ b.w_vols);
  }

let merge_snapshots snaps =
  match snaps with
  | [] -> { s_window_us = 0.0; s_windows = [] }
  | (_, first) :: rest ->
      List.iter
        (fun (_, s) ->
          if s.s_window_us <> first.s_window_us then
            invalid_arg "Rollup.merge_snapshots: window_us mismatch")
        rest;
      let namespaced (ns, s) =
        List.map
          (fun w ->
            { w with w_vols = List.map (fun (v, r) -> ((ns lsl 16) lor v, r)) w.w_vols })
          s.s_windows
      in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (ns, s) ->
          List.iter
            (fun w ->
              match Hashtbl.find_opt tbl w.w_seq with
              | None -> Hashtbl.replace tbl w.w_seq w
              | Some w0 -> Hashtbl.replace tbl w.w_seq (merge_windows w0 w))
            (namespaced (ns, s)))
        snaps;
      let windows =
        Hashtbl.fold (fun _ w l -> w :: l) tbl [] (* lint-ok: sorted before use *)
        |> List.sort (fun a b -> compare a.w_seq b.w_seq)
      in
      { s_window_us = first.s_window_us; s_windows = windows }
