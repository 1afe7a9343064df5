(* Benchmark of the write-allocation simulator.

   One invocation runs one workload for a fixed host-time budget, checks
   the simulated outputs, and prints one JSON object as its last line:

     bench.exe --workload seq_write --seed 7 --seconds 20 --trace 0

   [--trace 0] reports the end-to-end metrics from untraced runs.
   [--trace 1] alternates traced and untraced runs and reports the
   per-layer metrics, [trace_overhead], and writes the coarse host-time
   spans plus the metrics registry to [trace_dir].  The workloads, metrics
   and the layer-to-metric map are described in perfbench/README.md.

   Everything goes through public entry points ([Driver.run],
   [Shard.run], [Crash.run_seeds]); per-layer host time is measured from
   outside, by engine observability hooks installed through the
   [spec.obs] factory.  No process-wide knob ([Driver.memoize], the
   sinks, [Exp] or chaos refs) is touched, so every timed run
   re-executes. *)

open Wafl_workload
module Engine = Wafl_sim.Engine
module H = Wafl_util.Histogram
module M = Wafl_obs.Metrics
module Shard = Wafl_harness.Shard
module Crash = Wafl_harness.Crash

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Words allocated so far: minor + major - promoted.  [Gc.quick_stat]
   folds in the counters of worker domains that have been joined, so a
   sharded run's allocation is counted in full once it returns. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
let peak_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* Live major-heap words after a full major collection; returns them with
   the host ns the collection took. *)
let live_words () =
  let t = now_ns () in
  Gc.full_major ();
  ((Gc.quick_stat ()).Gc.live_words, now_ns () - t)

(* ---- workloads -------------------------------------------------------- *)

type workload = Seq_write | Oltp_mixed | Tenants_flash | Shard_fleet

let workloads =
  [
    ("seq_write", Seq_write);
    ("oltp_mixed", Oltp_mixed);
    ("tenants_flash", Tenants_flash);
    ("shard_fleet", Shard_fleet);
  ]

(* Paper-scale server: 4 cleaner threads (up to 8), parallel infra,
   250 ms CP timer. *)
let server_cfg =
  {
    Wafl_core.Walloc.default_config with
    Wafl_core.Walloc.cleaner_threads = 4;
    max_cleaner_threads = 8;
    parallel_infra = true;
    cp_timer = Some 250_000.0;
  }

(* Virtual windows, µs.  Sized so one run takes a few host seconds and a
   20 s budget holds several runs to take medians over. *)
let closed_warmup = 100_000.0
let closed_measure = 200_000.0

let closed_loop ~seed workload =
  {
    Driver.default_spec with
    Driver.workload;
    seed;
    cores = 20;
    clients = 40;
    volumes = 2;
    geometry = Driver.paper_geometry ();
    cfg = server_cfg;
    warmup = closed_warmup;
    measure = closed_measure;
  }

(* tenants_flash: one bursty hot tenant and [n_tenants - 1] Poisson
   victims, each on its own volume, on the small geometry with an FTL at
   85 % device fill.  The victims' total rate stays well below what the
   device drains, so every victim op completes. *)
let n_tenants = 32
let victim_rate = 300.0

(* Short, frequent bursts at twice the hot volume's QoS rate: QoS
   throttles the few that outlast its 64-op bucket, the queue is deep
   enough that nothing is shed, and the write tail averages over
   hundreds of bursts a window. *)
let hot_tenant =
  Arrival.Bursty
    { base_rate = 2_000.0; burst_rate = 30_000.0; mean_on_us = 500.0; mean_off_us = 4_000.0 }

let tenants_qos = { Wafl_qos.Qos.rate_per_s = 15_000.0; burst = 64.0; queue_depth = 4096 }
let tenants_warmup = 1_000_000.0
let tenants_measure = 6_000_000.0

let tenants_spec ~seed =
  let geometry = Driver.small_geometry () in
  let device_blocks = Wafl_storage.Geometry.total_data_blocks geometry in
  (* the client files fill 62.5 % of the aggregate; thin provisioning
     puts that at 85 % of the flash device *)
  let occupancy = 0.625 and fill = 0.85 in
  let file_blocks = int_of_float (occupancy *. float_of_int device_blocks) / n_tenants in
  {
    Driver.default_spec with
    Driver.workload = Skewed_write { file_blocks; hot_fraction = 0.10; hot_rate = 0.90 };
    seed;
    geometry;
    clients = n_tenants;
    volumes = n_tenants;
    cache_blocks = 16384;
    nvlog_half = 512;
    watermarks = Some { Wafl_fs.Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 };
    open_loop =
      Some
        {
          Driver.arrivals =
            hot_tenant
            :: List.init (n_tenants - 1) (fun _ -> Arrival.Poisson { rate = victim_rate });
          qos = Some tenants_qos;
        };
    flash =
      Some
        {
          Wafl_flash.Ftl.default_config with
          Wafl_flash.Ftl.logical_capacity = occupancy /. fill;
          op_ratio = 0.10;
          streams = 2;
          seed;
        };
    telemetry = Some Driver.default_telemetry;
    cfg =
      {
        server_cfg with
        Wafl_core.Walloc.cleaner_threads = 2;
        max_cleaner_threads = 4;
        fair_cp = true;
        streams = `Temperature;
      };
    warmup = tenants_warmup;
    measure = tenants_measure;
  }

let driver_spec ~seed = function
  | Seq_write -> closed_loop ~seed (Driver.Seq_write { file_blocks = 16384 })
  | Oltp_mixed -> closed_loop ~seed (Driver.Oltp { file_blocks = 16384; read_fraction = 0.67 })
  | Tenants_flash -> tenants_spec ~seed
  | Shard_fleet -> invalid_arg "driver_spec: shard_fleet runs through Shard.run"

let shards = 4
let shard_domains = 2
let shard_scale = 1.0

(* [Shard.run]'s measure window at [shard_scale], virtual µs. *)
let shard_measure_us = Float.max 50_000.0 (400_000.0 *. shard_scale)

(* ---- host-time attribution (traced runs) ------------------------------ *)

(* Host time folded per fiber label: every hook call closes the slice
   since the previous one and charges it to the label that was running. *)
type prof = {
  totals : (string, int ref) Hashtbl.t;
  mutable cur : int ref;
  mutable cur_label : string;
  mutable last : int;
}

let prof_create () =
  let cur = ref 0 in
  let totals = Hashtbl.create 16 in
  Hashtbl.replace totals "host" cur;
  { totals; cur; cur_label = "host"; last = now_ns () }

let prof_slice p label =
  let t = now_ns () in
  p.cur := !(p.cur) + (t - p.last);
  p.last <- t;
  if label != p.cur_label && not (String.equal label p.cur_label) then begin
    p.cur_label <- label;
    p.cur <-
      (match Hashtbl.find_opt p.totals label with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.replace p.totals label r;
          r)
  end

(* ---- one Driver.run, observed from outside ---------------------------- *)

(* Filled by the [spec.obs] factory and the hooks it installs.  Set-up
   ends at the first dispatch of a client or arrival fiber: the driver
   spawns those only once the server is built and populated; the live
   heap is weighed there, and the collection that takes is left out of
   every host time.  The measure window opens [warmup] virtual µs later. *)
type probe = {
  traced : bool;
  warmup : float;
  prof : prof;
  mutable eng : Engine.t option;
  mutable obs : Wafl_obs.Trace.t;
  mutable t_setup_end : int;  (** host ns; 0 until set-up ends *)
  mutable sw_setup_end : int;
  mutable live_words : int;  (** live heap at the end of set-up *)
  mutable gc_ns : int;  (** host ns spent weighing it *)
  mutable v_window : float;
  mutable t_window : int;  (** host ns; 0 until the window opens (traced) *)
  mutable sw_window : int;
  mutable base_counters : (string * float) list;
  mutable base_histos : (string * H.t) list;
}

let no_wake ~waker:_ ~wakee:_ ~now:_ = ()
let no_spawn ~parent:_ ~child:_ ~now:_ = ()

let open_window p eng now =
  if p.t_window = 0 && now >= p.v_window then begin
    p.t_window <- now_ns ();
    p.sw_window <- Engine.context_switches eng;
    let m = Wafl_obs.Trace.metrics p.obs in
    p.base_counters <- M.counters m;
    p.base_histos <- List.map (fun (n, h) -> (n, H.copy h)) (M.histograms m)
  end

(* Untraced runs keep the hooks only until set-up ends, then remove
   them; traced runs keep them and fold every slice into [prof]. *)
let factory p eng =
  p.eng <- Some eng;
  p.obs <- (if p.traced then Wafl_obs.Trace.metrics_only eng else Wafl_obs.Trace.disabled);
  let on_switch ~fid:_ ~label ~now =
    if p.traced then prof_slice p.prof label;
    if p.t_setup_end = 0 then begin
      if String.equal label "client" || String.equal label "arrival" then begin
        p.t_setup_end <- now_ns ();
        p.sw_setup_end <- Engine.context_switches eng;
        let words, ns = live_words () in
        p.live_words <- words;
        p.gc_ns <- ns;
        p.prof.last <- p.prof.last + ns;
        p.v_window <- now +. p.warmup;
        if not p.traced then Engine.clear_obs_hooks eng
      end
    end
    else open_window p eng now
  in
  let on_consume ~fid:_ ~label ~amount:_ ~now:_ = if p.traced then prof_slice p.prof label in
  Engine.set_obs_hooks eng { Engine.on_switch; on_consume; on_wake = no_wake; on_spawn = no_spawn };
  p.obs

type run = {
  r : Driver.result;
  wall : float;  (** host s for the whole [Driver.run] *)
  setup : float;  (** host s before the first client op *)
  after_setup : float;  (** host s from the first client op to return *)
  live_mb : float;  (** live heap at the end of set-up *)
  words : float;  (** words allocated by the run *)
  dispatches : int;  (** engine dispatches after set-up *)
  win_dispatches : int;  (** engine dispatches in the measure window (traced) *)
  stalled : int;
  counters : (string * float) list;  (** registry deltas over the window (traced) *)
  histos : (string * H.t) list;
  host_s : (string * float) list;  (** host s per fiber label (traced) *)
  spans : (string * int * int) list;  (** coarse host spans: name, start ns, end ns *)
}

let delta_counters ~base cur =
  List.map
    (fun (n, v) -> (n, v -. Option.value ~default:0.0 (List.assoc_opt n base)))
    cur

let delta_histos ~base cur =
  List.map
    (fun (n, h) ->
      match List.assoc_opt n base with
      | Some b -> (n, H.delta ~baseline:b h)
      | None -> (n, H.copy h))
    cur

let run_driver ~traced spec =
  Gc.compact ();
  let p =
    {
      traced;
      warmup = spec.Driver.warmup;
      prof = prof_create ();
      eng = None;
      obs = Wafl_obs.Trace.disabled;
      t_setup_end = 0;
      sw_setup_end = 0;
      live_words = 0;
      gc_ns = 0;
      v_window = infinity;
      t_window = 0;
      sw_window = 0;
      base_counters = [];
      base_histos = [];
    }
  in
  let w0 = alloc_words () in
  let t0 = now_ns () in
  p.prof.last <- t0;
  let r = Driver.run { spec with Driver.obs = factory p } in
  let t1 = now_ns () in
  if traced then prof_slice p.prof "host";
  let words = alloc_words () -. w0 in
  let eng = match p.eng with Some e -> e | None -> failwith "obs factory was not called" in
  Engine.clear_obs_hooks eng;
  let sw = Engine.context_switches eng in
  let t_setup_end = if p.t_setup_end = 0 then t1 else p.t_setup_end in
  let t_window = if p.t_window = 0 then t_setup_end else p.t_window in
  let m = Wafl_obs.Trace.metrics p.obs in
  {
    r;
    wall = secs (t1 - t0 - p.gc_ns);
    setup = secs (t_setup_end - t0);
    after_setup = secs (t1 - t_setup_end - p.gc_ns);
    live_mb = mb p.live_words;
    words;
    dispatches = sw - p.sw_setup_end;
    win_dispatches = sw - p.sw_window;
    stalled = List.length (Engine.stalled_fibers eng);
    counters = (if traced then delta_counters ~base:p.base_counters (M.counters m) else []);
    histos = (if traced then delta_histos ~base:p.base_histos (M.histograms m) else []);
    host_s =
      Hashtbl.fold (fun l ns acc -> (l, secs !ns) :: acc) p.prof.totals []
      |> List.sort compare;
    spans = [ ("run", t0, t1); ("set-up", t0, t_setup_end); ("window", t_window, t1) ];
  }

(* ---- one Shard.run ----------------------------------------------------- *)

type shard_run = { o : Shard.outcome; s_wall : float; s_words : float; s_t0 : int; s_t1 : int }

let run_shard ~domains ~scale ~seed =
  Gc.compact ();
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let o = Shard.run ~scale ~shards ~domains ~seed () in
  let t1 = now_ns () in
  { o; s_wall = secs (t1 - t0); s_words = alloc_words () -. w0; s_t0 = t0; s_t1 = t1 }

let shard_ops o = List.fold_left (fun a r -> a + r.Shard.ops) 0 o.Shard.rows

(* ---- output checks ----------------------------------------------------- *)

let checks : (string * bool) list ref = ref []
let check name ok = checks := (name, ok) :: !checks

(* Crash-consistency batch derived from the workload seed: acknowledged
   writes read back and fsck passes after recovery.  Untimed. *)
let crash_check ~seed workload =
  let first_seed = 1 + (seed * 4 mod 1_000_000) in
  let overload, flash = match workload with Tenants_flash -> (true, true) | _ -> (false, false) in
  let outs = Crash.run_seeds ~overload ~flash ~first_seed ~count:4 () in
  check
    (Printf.sprintf "crash seeds %d..%d: acked writes read back, fsck clean" first_seed
       (first_seed + 3))
    (List.for_all Crash.passed outs)

let hex_float f = Printf.sprintf "%h" f

let histo_digest h =
  String.concat "," (Array.to_list (Array.map string_of_int (H.counts h)))
  ^ "/" ^ hex_float (H.sum h)

(* Deterministic digest of a run's simulated result. *)
let result_digest (r : Driver.result) =
  let ints =
    [
      r.ops; r.reads; r.writes; r.metas; r.offered_ops; r.shed_ops; r.throttled_ops;
      r.cps_completed; r.buffers_cleaned; r.vbns_allocated; r.vbns_freed;
      r.metafile_blocks_touched; r.infra_messages; r.cleaner_messages; r.get_waits;
      r.full_stripes; r.partial_stripes; r.b2b_cps; r.b2b_episodes; r.nvlog_exhausted;
      r.flash_host_pages; r.flash_gc_pages; r.flash_erases;
    ]
  in
  let floats =
    [
      r.duration; r.utilization; r.cores_client; r.cores_cleaner; r.cores_infra; r.cores_cp;
      r.read_contiguity; r.stall_us; r.flash_gc_stall_us; r.waf; r.avg_active_cleaners;
    ]
  in
  let tenants =
    Array.to_list
      (Array.map
         (fun t ->
           Printf.sprintf "%d/%d/%d/%d/%d:%s" t.Driver.t_offered t.t_admitted t.t_throttled
             t.t_shed t.t_completed (histo_digest t.t_write_latency))
         r.tenants)
  in
  let health =
    match r.telemetry with
    | None -> "-"
    | Some tr -> Printf.sprintf "%d+%d" (List.length tr.Driver.tr_events) tr.tr_health_dropped
  in
  String.concat ";"
    (List.map string_of_int ints @ List.map hex_float floats
    @ [ histo_digest r.latency; histo_digest r.write_latency; health ]
    @ tenants)
  |> Digest.string |> Digest.to_hex

let shard_digest o = Digest.to_hex (Digest.string (Shard.digest o))

let check_driver_run workload run =
  let r = run.r in
  check "no stalled fibers after the run" (run.stalled = 0);
  check "ops > 0" (r.ops > 0);
  check "nvlog_exhausted = 0" (r.nvlog_exhausted = 0);
  check "no race reports" (r.races = 0);
  check "ops = reads + writes + metas" (r.ops = r.reads + r.writes + r.metas);
  check "write latency sampled" (H.count r.write_latency > 0);
  check "waf >= 1" (r.waf >= 1.0);
  Array.iter
    (fun t ->
      check "tenant offered = admitted + shed" (t.Driver.t_offered = t.t_admitted + t.t_shed);
      check "tenant completed <= admitted" (t.t_completed <= t.t_admitted))
    r.tenants;
  match workload with
  | Tenants_flash ->
      let victims = List.tl (Array.to_list r.tenants) in
      check "victims are never shed" (List.for_all (fun t -> t.Driver.t_shed = 0) victims);
      check "flash GC ran" (r.flash_gc_pages > 0)
  | Seq_write | Oltp_mixed | Shard_fleet -> ()

(* ---- measurement loops -------------------------------------------------- *)

(* Runs [f] until [seconds] of host time are spent (at least [min_runs]
   times), never starting a run that would not fit in the rest of the
   budget once [min_runs] is reached. *)
let timed_loop ~seconds ~min_runs f =
  let t0 = now_ns () in
  let rec go acc n last =
    let elapsed = secs (now_ns () - t0) in
    if n >= min_runs && elapsed +. last > seconds then List.rev acc
    else begin
      let t = now_ns () in
      let x = f n in
      go (x :: acc) (n + 1) (secs (now_ns () - t))
    end
  in
  go [] 0 0.0

(* Pairs [(a i, b i)] for the budget.  Which of the two runs first
   alternates, so neither always runs on the warmer host. *)
let alternating ~seconds a b =
  timed_loop ~seconds ~min_runs:2 (fun i ->
      if i mod 2 = 0 then
        let x = a i in
        (x, b i)
      else
        let y = b i in
        (a i, y))

(* ---- metrics ------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

(* Percentile interpolated log-linearly within its bucket, so it moves
   smoothly with the samples instead of jumping between bucket centres. *)
let pct h p =
  let n = H.count h in
  if n = 0 then 0.0
  else begin
    let counts = H.counts h in
    let scale = float_of_int (H.buckets_per_decade h) /. log 10.0 in
    let log_lo = log (H.lo h) in
    let target = p /. 100.0 *. float_of_int n in
    let rec scan b acc =
      if b >= Array.length counts then H.max_seen h
      else
        let c = counts.(b) in
        if c > 0 && float_of_int (acc + c) >= target then
          let frac = (target -. float_of_int acc) /. float_of_int c in
          Float.min (exp (log_lo +. ((float_of_int b +. frac) /. scale))) (H.max_seen h)
        else scan (b + 1) (acc + c)
    in
    scan 0 0
  end

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let report_latency name h =
  info "%s: p50 %.2f us, p99 %.2f us, p99.9 %.2f us over %d samples" name (pct h 50.0)
    (pct h 99.0) (pct h 99.9) (H.count h)

let report_walls walls =
  info "host runs: %d, wall s: %s" (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))

(* Run [i] simulates sub-seed [i mod sub_seeds] of the workload seed.  The
   modelled metrics pool the first [sub_seeds] runs — independent windows,
   the same ones on every invocation with that seed — while the host
   metrics are medians over every run. *)
let sub_seeds = 6
let sub_seed seed i = (seed * sub_seeds) + (i mod sub_seeds)
let distinct runs = List.filteri (fun i _ -> i < sub_seeds) runs
let sum f runs = List.fold_left (fun a x -> a + f x) 0 runs
let merged f runs = List.fold_left (fun acc x -> H.merge acc (f x)) (H.create ()) runs

(* The tenants that keep to their rate: every tenant but the hot one, or
   every client of a closed-loop run. *)
let victim_latency (r : Driver.result) =
  match Array.to_list r.tenants with
  | [] -> r.write_latency
  | _ :: victims -> merged (fun t -> t.Driver.t_write_latency) victims

(* Window ops per host second after set-up, median over runs.  The host's
   speed drifts by a third between invocations minutes apart, more than
   any end-to-end bound allows, so this is reported per layer (from the
   untraced runs of --trace 1) and printed here, not gated. *)
let sim_ops_per_s runs = median (List.map (fun x -> float_of_int x.r.ops /. x.after_setup) runs)

let driver_end_to_end runs =
  let rs = List.map (fun x -> x.r) (distinct runs) in
  let ops = sum (fun (r : Driver.result) -> r.ops) rs in
  let words = List.fold_left (fun a x -> a +. x.words) 0.0 (distinct runs) in
  let duration = List.fold_left (fun a (r : Driver.result) -> a +. r.duration) 0.0 rs in
  let host_pages = sum (fun (r : Driver.result) -> r.flash_host_pages) rs in
  let gc_pages = sum (fun (r : Driver.result) -> r.flash_gc_pages) rs in
  let writes = merged (fun (r : Driver.result) -> r.write_latency) rs in
  let victims = merged victim_latency rs in
  metric "setup_s" "s" (median (List.map (fun x -> x.setup) runs));
  metric "alloc_words_per_op" "words" (words /. float_of_int ops);
  metric "live_heap_mb" "MB" (median (List.map (fun x -> x.live_mb) (distinct runs)));
  metric "virt_ops_per_s" "1/s" (float_of_int ops /. duration *. 1e6);
  metric "virt_write_p50_us" "us" (pct writes 50.0);
  metric "virt_write_p999_us" "us" (pct writes 99.9);
  metric "victim_write_p999_us" "us" (pct victims 99.9);
  metric "waf" "ratio"
    (if host_pages = 0 then 1.0
     else float_of_int (host_pages + gc_pages) /. float_of_int host_pages);
  info "sim_ops_per_s %.1f 1/s (not gated), top major heap %.1f MB" (sim_ops_per_s runs)
    (peak_heap_mb ());
  report_latency "write latency" writes;
  report_latency "victim write latency" victims;
  report_walls (List.map (fun x -> x.wall) runs)

(* shard_fleet's clients write straight into NVLog, so its write latency
   is below the rollup sketch's 1 µs floor: the fleet reports host cost
   and modelled throughput only. *)
let shard_end_to_end ~setups runs =
  let ds = distinct runs in
  let ops = sum (fun x -> shard_ops x.o) ds in
  metric "setup_s" "s" (median setups);
  metric "sim_ops_per_s" "1/s"
    (median (List.map (fun x -> float_of_int (shard_ops x.o) /. x.s_wall) runs));
  metric "alloc_words_per_op" "words"
    (List.fold_left (fun a x -> a +. x.s_words) 0.0 ds /. float_of_int ops);
  metric "peak_heap_mb" "MB" (peak_heap_mb ());
  metric "virt_ops_per_s" "1/s"
    (float_of_int ops /. (float_of_int (List.length ds) *. shard_measure_us) *. 1e6);
  report_walls (List.map (fun x -> x.s_wall) runs)

(* ---- per-layer metrics (traced) ---------------------------------------- *)

(* A Driver workload's traced runs, and the untraced runs they alternate
   with. *)
type layered = { traced : run list; untraced : run list }

let kinds =
  [
    "serial"; "aggregate"; "aggregate_vbn"; "agg_range"; "volume"; "volume_logical"; "stripe";
    "volume_vbn"; "vol_range";
  ]

let cp_phases = [ "cleaning"; "flush"; "metafiles"; "io-flush" ]
let host_labels = [ "client"; "arrival"; "setup"; "cleaner"; "infra"; "cp"; "io" ]
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_op n ops = ratio (float_of_int n) (float_of_int ops)
let first l = (List.hd l.traced).r
let ops l = (first l).ops
let counter l name = Option.value ~default:0.0 (List.assoc_opt name (List.hd l.traced).counters)

let histo_pct name p l =
  match List.assoc_opt name (List.hd l.traced).histos with Some h -> pct h p | None -> 0.0

let host_s label l =
  median (List.map (fun x -> Option.value ~default:0.0 (List.assoc_opt label x.host_s)) l.traced)

let telemetry_counts l =
  match (first l).telemetry with
  | None -> (0, 0)
  | Some tr ->
      let sealed =
        match List.rev tr.Driver.tr_snapshot.Wafl_obs.Rollup.s_windows with
        | [] -> 0
        | w :: _ -> w.Wafl_obs.Rollup.w_seq + 1
      in
      (sealed, List.length tr.tr_events + tr.tr_health_dropped)

(* Every per-layer metric of a Driver workload: name, unit, extractor. *)
let driver_layers : (string * string * (layered -> float)) list =
  let f name unit get = (name, unit, fun l -> get (first l)) in
  [
    ("sim_ops_per_s", "1/s", fun l -> sim_ops_per_s l.untraced);
    ( "engine.dispatches_per_op",
      "count",
      fun l -> per_op (List.hd l.traced).win_dispatches (ops l) );
    ( "engine.host_ns_per_dispatch",
      "ns",
      fun l ->
        median (List.map (fun x -> x.after_setup *. 1e9 /. float_of_int x.dispatches) l.untraced) );
    f "engine.utilization" "ratio" (fun r -> r.utilization);
  ]
  @ List.map (fun lb -> ("host_s." ^ lb, "s", host_s lb)) host_labels
  @ [
      ( "sched.messages_per_op",
        "count",
        fun l -> counter l "sched.messages" /. float_of_int (ops l) );
    ]
  @ List.map
      (fun k ->
        (Printf.sprintf "sched.wait_us.%s.p99" k, "us", histo_pct ("sched.wait_us." ^ k) 99.0))
      kinds
  @ List.map
      (fun k ->
        ( Printf.sprintf "sched.service_us.%s.p50" k,
          "us",
          histo_pct ("sched.service_us." ^ k) 50.0 ))
      kinds
  @ [
      f "cleaner.cores" "cores" (fun r -> r.cores_cleaner);
      f "cleaner.buffers_per_msg" "count" (fun r -> per_op r.buffers_cleaned r.cleaner_messages);
      f "cleaner.get_waits" "count" (fun r -> float_of_int r.get_waits);
      f "cleaner.avg_active" "threads" (fun r -> r.avg_active_cleaners);
      f "infra.cores" "cores" (fun r -> r.cores_infra);
      f "infra.messages_per_op" "count" (fun r -> per_op r.infra_messages r.ops);
      f "infra.metafile_blocks_per_op" "count" (fun r -> per_op r.metafile_blocks_touched r.ops);
      f "alloc.vbns_allocated_per_op" "count" (fun r -> per_op r.vbns_allocated r.ops);
      f "alloc.vbns_freed_per_op" "count" (fun r -> per_op r.vbns_freed r.ops);
      f "cp.count" "count" (fun r -> float_of_int r.cps_completed);
      f "cp.b2b" "count" (fun r -> float_of_int r.b2b_cps);
      ("cp.duration_us.p99", "us", histo_pct "cp.duration_us" 99.0);
    ]
  @ List.map
      (fun ph ->
        (Printf.sprintf "cp.phase_us.%s.p50" ph, "us", histo_pct ("cp.phase_us." ^ ph) 50.0))
      cp_phases
  @ [
      f "tetris.full_stripe_frac" "ratio" (fun r ->
          per_op r.full_stripes (r.full_stripes + r.partial_stripes));
      ("raid.ios_per_op", "count", fun l -> counter l "raid.ios" /. float_of_int (ops l));
      ( "raid.blocks_per_io",
        "count",
        fun l -> ratio (counter l "raid.blocks") (counter l "raid.ios") );
      ("raid.io_wait_us.p99", "us", histo_pct "raid.io_wait_us" 99.0);
      ("raid.io_service_us.p99", "us", histo_pct "raid.io_service_us" 99.0);
      f "layout.read_contiguity" "blocks" (fun r -> r.read_contiguity);
      f "nvlog.stall_us" "us" (fun r -> r.stall_us);
      f "nvlog.exhausted" "count" (fun r -> float_of_int r.nvlog_exhausted);
      ("op.throttle_us.p99", "us", histo_pct "op.throttle_us" 99.0);
      ("op.e2e_us.read.p50", "us", histo_pct "op.e2e_us.read" 50.0);
      ("op.e2e_us.read.p99", "us", histo_pct "op.e2e_us.read" 99.0);
      f "flash.gc_pages" "count" (fun r -> float_of_int r.flash_gc_pages);
      f "flash.erases" "count" (fun r -> float_of_int r.flash_erases);
      f "flash.gc_stall_us" "us" (fun r -> r.flash_gc_stall_us);
      f "qos.throttled_frac" "ratio" (fun r -> per_op r.throttled_ops r.offered_ops);
      f "qos.shed_frac" "ratio" (fun r -> per_op r.shed_ops r.offered_ops);
      ("qos.queue_wait_us.p99", "us", histo_pct "qos.queue_wait_us" 99.0);
      ("rollup.windows_sealed", "count", fun l -> float_of_int (fst (telemetry_counts l)));
      ("health.events", "count", fun l -> float_of_int (snd (telemetry_counts l)));
    ]

let driver_per_layer l =
  List.iter (fun (name, unit, get) -> metric name unit (get l)) driver_layers;
  metric "trace_overhead" "x"
    (ratio
       (median (List.map (fun x -> x.wall) l.traced))
       (median (List.map (fun x -> x.wall) l.untraced)))

(* ---- trace file ----------------------------------------------------------- *)

let json_string s = Printf.sprintf "%S" s

(* Coarse host spans (Chrome trace events, µs since the first run) plus
   the first traced run's registry, window deltas. *)
let write_trace ~path ~spans ~counters ~histos =
  let t0 = List.fold_left (fun a (_, _, s, _) -> min a s) max_int spans in
  let us ns = float_of_int (ns - t0) /. 1e3 in
  let events =
    List.map
      (fun (tid, name, s, e) ->
        Printf.sprintf "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
          (json_string name) tid (us s) (us e -. us s))
      spans
  in
  let counters = List.map (fun (n, v) -> Printf.sprintf "%s:%.17g" (json_string n) v) counters in
  let histos =
    List.map
      (fun (n, h) ->
        Printf.sprintf "%s:{\"count\":%d,\"p50\":%.17g,\"p99\":%.17g}" (json_string n) (H.count h)
          (pct h 50.0) (pct h 99.0))
      histos
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"traceEvents\":[%s],\n\"counters\":{%s},\n\"histograms\":{%s}}\n"
    (String.concat ",\n" events) (String.concat "," counters) (String.concat "," histos);
  close_out oc

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- workflows ----------------------------------------------------------- *)

(* Checks that run [i] reproduces run [i - sub_seeds], which simulated the
   same sub-seed, and returns the digest of the distinct runs. *)
let replay_digest what digests =
  List.iteri
    (fun i d ->
      if i >= sub_seeds then
        check
          (what ^ ": a repeated sub-seed reproduces its result")
          (String.equal d (List.nth digests (i mod sub_seeds))))
    digests;
  Digest.to_hex (Digest.string (String.concat ";" (distinct digests)))

let driver_workload ~workload ~seed ~seconds ~traced ~trace_path =
  let spec i = driver_spec ~seed:(sub_seed seed i) workload in
  let runs, all_runs =
    if not traced then begin
      let runs =
        timed_loop ~seconds ~min_runs:sub_seeds (fun i -> run_driver ~traced:false (spec i))
      in
      driver_end_to_end runs;
      (runs, runs)
    end
    else begin
      let pairs =
        alternating ~seconds
          (fun i -> run_driver ~traced:true (spec i))
          (fun i -> run_driver ~traced:false (spec i))
      in
      List.iter
        (fun (t, u) ->
          check "tracing leaves the result unchanged"
            (String.equal (result_digest t.r) (result_digest u.r)))
        pairs;
      let l = { traced = List.map fst pairs; untraced = List.map snd pairs } in
      driver_per_layer l;
      let t = List.hd l.traced in
      let spans =
        List.concat
          (List.mapi (fun i x -> List.map (fun (name, s, e) -> (i, name, s, e)) x.spans) l.traced)
      in
      write_trace ~path:trace_path ~spans ~counters:t.counters ~histos:t.histos;
      info "trace: %s" trace_path;
      info "host s per fiber label (first traced run): %s"
        (String.concat " " (List.map (fun (lb, s) -> Printf.sprintf "%s=%.3f" lb s) t.host_s));
      (l.traced, l.traced @ l.untraced)
    end
  in
  List.iter (check_driver_run workload) all_runs;
  info "digest %s" (replay_digest "result digest" (List.map (fun x -> result_digest x.r) runs));
  List.iteri
    (fun i x ->
      if i < sub_seeds then
        info
          "sub-seed %d: window ops %d (reads %d, writes %d), offered %d, throttled %d, shed %d, \
           nvlog exhausted %d, back-to-back CPs %d, write p99 %.2f us"
          (sub_seed seed i) x.r.ops x.r.reads x.r.writes x.r.offered_ops x.r.throttled_ops
          x.r.shed_ops x.r.nvlog_exhausted x.r.b2b_cps (pct x.r.write_latency 99.0))
    runs;
  ( sum (fun x -> x.r.offered_ops) all_runs,
    sum (fun x -> x.r.shed_ops + x.r.nvlog_exhausted) all_runs )

let shard_workload ~seed ~seconds ~traced ~trace_path =
  let run d i = run_shard ~domains:d ~scale:shard_scale ~seed:(sub_seed seed i) in
  let runs, all_runs =
    if not traced then begin
      (* set-up cost: the smallest fleet run [Shard.run] accepts *)
      let setups =
        List.init 3 (fun i ->
            (run_shard ~domains:shard_domains ~scale:0.0 ~seed:(sub_seed seed i)).s_wall)
      in
      let runs = timed_loop ~seconds ~min_runs:sub_seeds (run shard_domains) in
      shard_end_to_end ~setups runs;
      (runs, runs)
    end
    else begin
      let pairs = alternating ~seconds (run shard_domains) (run 1) in
      List.iter
        (fun (d, one) ->
          check
            (Printf.sprintf "shard digest at %d domains = digest at 1 domain" shard_domains)
            (String.equal (shard_digest d.o) (shard_digest one.o)))
        pairs;
      let dn = List.map fst pairs and d1 = List.map snd pairs in
      let o = (List.hd dn).o in
      metric "shard.speedup_vs_d1" "x"
        (ratio
           (median (List.map (fun x -> x.s_wall) d1))
           (median (List.map (fun x -> x.s_wall) dn)));
      metric "shard.epochs" "count" (float_of_int o.Shard.epochs);
      metric "shard.ops" "count" (float_of_int (shard_ops o));
      let spans =
        List.mapi (fun i x -> (i, Printf.sprintf "run d%d" shard_domains, x.s_t0, x.s_t1)) dn
        @ List.mapi (fun i x -> (i, "run d1", x.s_t0, x.s_t1)) d1
      in
      write_trace ~path:trace_path ~spans ~counters:[] ~histos:[];
      info "trace: %s" trace_path;
      (dn, dn @ d1)
    end
  in
  List.iter
    (fun x ->
      List.iter (fun (name, ok) -> check name ok) (Shard.shapes x.o);
      check "fleet ops > 0" (shard_ops x.o > 0))
    all_runs;
  info "digest %s" (replay_digest "shard digest" (List.map (fun x -> shard_digest x.o) runs));
  (sum (fun x -> shard_ops x.o) all_runs, 0)

(* ---- main ----------------------------------------------------------------- *)

(* Relative to the checkout root, inside the benchmark's build directory. *)
let trace_dir = ".bench_build/perfbench"

let usage =
  "bench.exe --workload (seq_write|oltp_mixed|tenants_flash|shard_fleet) --seed N --seconds S \
   --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 in
  let domains = match w with Shard_fleet -> shard_domains | _ -> 1 in
  info "workload %s seed %d seconds %g trace %d" !workload !seed !seconds !trace;
  info "host: nproc %d, OCaml %s, domains used %d%s" (Domain.recommended_domain_count ())
    Sys.ocaml_version domains
    (if traced && w = Shard_fleet then " and 1" else "");
  mkdir_p trace_dir;
  let trace_path =
    Filename.concat trace_dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed)
  in
  crash_check ~seed:!seed w;
  let attempted, refused =
    match w with
    | Shard_fleet -> shard_workload ~seed:!seed ~seconds:!seconds ~traced ~trace_path
    | Seq_write | Oltp_mixed | Tenants_flash ->
        driver_workload ~workload:w ~seed:!seed ~seconds:!seconds ~traced ~trace_path
  in
  let metrics = List.rev !metrics in
  List.iter (fun (n, v, _) -> check (n ^ " is finite") (Float.is_finite v)) metrics;
  let failures = List.filter (fun (_, ok) -> not ok) (List.rev !checks) in
  List.iter (fun (name, _) -> info "CHECK FAILED: %s" name) failures;
  info "checks: %d run, %d failed" (List.length !checks) (List.length failures);
  let correct = failures = [] in
  let failed = if correct then refused else attempted in
  info "failed_frac %.6f (%d of %d ops offered)"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  List.iter (fun (n, v, u) -> info "metric %s = %.6g %s" n v u) metrics;
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string n)
          (if Float.is_finite v then v else 0.0) (json_string u))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 attempted) failed (String.concat ", " fields)
