(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§V) on the simulated 20-core platform, then runs
   Bechamel micro-benchmarks of the allocator's primitive operations.

     dune exec bench/main.exe              # full paper scale
     WAFL_QUICK=1 dune exec bench/main.exe # fast smoke (quarter scale)
     WAFL_SCALE=0.5 ...                    # custom scale *)

module H = Wafl_harness
module J = Wafl_obs.Json
module Driver = Wafl_workload.Driver

let section name = Printf.printf "\n=== %s ===\n%!" name

(* One record per figure, accumulated for BENCH_paper.json. *)
type record = {
  r_name : string;
  r_wall_s : float;
      (** summed host seconds of the unique runs the figure used; a run
          shared with another figure counts in full for both *)
  r_virtual_us : float;  (** summed final virtual clocks of those runs *)
  r_write_ops : int;  (** client writes across those runs *)
  r_write_p50_us : float;
  r_write_p99_us : float;
  r_health_events : int;
      (** health-watchdog events across those runs; healthy figures must
          report 0 *)
  r_extra : (string * J.t) list;
      (** figure-specific columns (e.g. the overload figure's per-scenario
          goodput / shed_rate / victim_p99 table) *)
  r_shapes : (string * bool) list;
}

(* A figure's plan yields a printer for its table that returns the
   figure's shape checks and extra JSON columns. *)
type figure = {
  f_name : string;
  f_title : string;
  f_plan : (unit -> (string * bool) list * (string * J.t) list) H.Exp.plan;
}

let figure name title plan print ?(extra = fun _ -> []) shapes =
  {
    f_name = name;
    f_title = title;
    f_plan =
      H.Exp.map
        (fun rows () ->
          print rows;
          (shapes rows, extra rows))
        plan;
  }

(* Every run the batch executes, with its host seconds.  Worker domains
   append concurrently, hence the lock. *)
let timings : (Driver.result * float) list ref = ref []
let timings_lock = Mutex.create ()

(* The bench's [run]: the whole suite carries fleet telemetry
   (observe-only, so every number is unchanged) and each run is timed. *)
let timed_run spec =
  let t0 = Unix.gettimeofday () in
  let r = Driver.run { spec with Driver.telemetry = Some Driver.default_telemetry } in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.protect timings_lock (fun () -> timings := (r, dt) :: !timings);
  r

(* A figure's record from the results its plan consumed: a run the plan
   asked for twice counts once. *)
let record_of f (shapes, extra) results =
  let unique =
    List.fold_left (fun acc r -> if List.memq r acc then acc else r :: acc) [] results
  in
  let wall = List.fold_left (fun a r -> a +. List.assq r !timings) 0.0 unique in
  let virt = List.fold_left (fun a r -> a +. r.Driver.virtual_us) 0.0 unique in
  let wh = Wafl_util.Histogram.create () in
  List.iter
    (fun r -> Wafl_util.Histogram.merge_into ~dst:wh r.Driver.write_latency)
    unique;
  let health =
    List.fold_left
      (fun a r ->
        match r.Driver.telemetry with
        | Some tr -> a + List.length tr.Driver.tr_events
        | None -> a)
      0 unique
  in
  let p50 = Wafl_util.Histogram.percentile wh 50.0 in
  let p99 = Wafl_util.Histogram.percentile wh 99.0 in
  Printf.printf "  [%s: %.1fs wall, %.2fs virtual, write p50 %.0fus p99 %.0fus, %d health events]\n%!"
    f.f_name wall (virt /. 1e6) p50 p99 health;
  {
    r_name = f.f_name;
    r_wall_s = wall;
    r_virtual_us = virt;
    r_write_ops = Wafl_util.Histogram.count wh;
    r_write_p50_us = p50;
    r_write_p99_us = p99;
    r_health_events = health;
    r_extra = extra;
    r_shapes = shapes;
  }

(* BENCH_paper.json schema (all times in the named unit):
     { "schema": "wafl-bench/8",
       "scale": float,            -- WAFL_SCALE factor of THIS run
       "domains": int,            -- worker domains the harness fanned over
       "total_wall_s": float,     -- elapsed host time of the figure batch
       "total_virtual_us": float, -- summed final virtual clocks of the
                                  -- batch's unique runs
       "speedup_vs_d1": float,    -- present when the file holds a 1-domain
                                  -- run at the same scale: its wall / ours
       "shapes_ok": int, "shapes_total": int,
       "figures": [ { "name": str,
                      "wall_s": float,         -- host s of the unique runs it used
                      "virtual_us": float,     -- their final virtual clocks
                      "write_ops": int,        -- their client writes
                      "write_p50_us": float,   -- end-to-end write latency
                      "write_p99_us": float,
                      "shapes": [ { "name": str, "ok": bool } ] } ],
       "runs_by_config": { "0.25/d1": { scale, domains, total_wall_s, ... },
                           "0.25/d4": { ... }, "1.00/d1": { ... } } }
   The top-level fields describe the run that last wrote the file (v1
   compatibility, and what `make bench-gate` compares); "runs_by_config"
   keeps the latest run per (scale, domains) pair so one file records
   the quarter-scale smoke, the full-scale suite, and serial-vs-parallel
   pairs whose results are byte-identical by construction (only wall
   time differs).  Figures appear in execution order; "shapes" are the
   qualitative paper-vs-measured assertions also printed in the shape
   summary.  v3 adds the per-figure end-to-end write-latency fields; v4
   adds figure-specific extra columns — the overload figure carries
     "overload": [ { "scenario": str, "goodput_ops_s": float,
                     "shed_rate": float, "victim_p99_us": float } ]
   with one row per scenario; v5 adds the flash media-model figure with
     "flash": [ { "scenario": str, "waf": float, "gc_stall_ms": float,
                  "write_p99_us": float } ]
   per scenario; v6 adds "domains", "speedup_vs_d1" and renames
   "runs_by_scale" to the (scale, domains)-keyed "runs_by_config" —
   legacy v2..v5 entries are carried over under "SCALE/d1"; v7 runs the
   whole suite with fleet telemetry attached (observe-only, so every
   number is unchanged) and adds the per-figure "health_events" count —
   0 on every healthy figure; v8 executes every selected figure as one
   deduplicated batch (Exp.execute) and credits each figure with every
   unique run it uses — a run two figures share counts in full for both,
   so figures no longer hide behind an earlier figure's cache —, while
   "total_wall_s" is the batch's elapsed time.  Older files (without
   these fields) are still read for carry-over. *)
let run_record ~scale ~domains ~total_wall ~total_virtual records =
  let figs =
    List.map
      (fun r ->
        J.Obj
          ([
             ("name", J.Str r.r_name);
             ("wall_s", J.Num r.r_wall_s);
             ("virtual_us", J.Num r.r_virtual_us);
             ("write_ops", J.Num (float_of_int r.r_write_ops));
             ("write_p50_us", J.Num r.r_write_p50_us);
             ("write_p99_us", J.Num r.r_write_p99_us);
             ("health_events", J.Num (float_of_int r.r_health_events));
           ]
          @ r.r_extra
          @ [
              ( "shapes",
                J.Arr
                  (List.map
                     (fun (n, ok) -> J.Obj [ ("name", J.Str n); ("ok", J.Bool ok) ])
                     r.r_shapes) );
            ]))
      records
  in
  let shapes = List.concat_map (fun r -> r.r_shapes) records in
  [
    ("scale", J.Num scale);
    ("domains", J.Num (float_of_int domains));
    ("total_wall_s", J.Num total_wall);
    ("total_virtual_us", J.Num total_virtual);
    ("shapes_ok", J.Num (float_of_int (List.length (List.filter snd shapes))));
    ("shapes_total", J.Num (float_of_int (List.length shapes)));
    ("figures", J.Arr figs);
  ]

(* Latest run per (scale, domains) config from an existing file, minus
   the key being rewritten; a v1 file (or no file) contributes nothing.
   Pre-v6 files carried one run per scale in "runs_by_scale" — those
   runs were all single-domain, so they carry over as "SCALE/d1". *)
let previous_runs ~except path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic -> (
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      match J.of_string body with
      | Ok doc -> (
          let runs =
            match (J.member "schema" doc, J.member "runs_by_config" doc) with
            | Some (J.Str ("wafl-bench/6" | "wafl-bench/7" | "wafl-bench/8")), Some (J.Obj runs)
              -> runs
            | Some (J.Str ("wafl-bench/2" | "wafl-bench/3" | "wafl-bench/4" | "wafl-bench/5")), _
              -> (
                match J.member "runs_by_scale" doc with
                | Some (J.Obj runs) -> List.map (fun (k, v) -> (k ^ "/d1", v)) runs
                | _ -> [])
            | _ -> []
          in
          List.filter (fun (k, _) -> k <> except) runs)
      | _ -> [])

let config_key ~scale ~domains = Printf.sprintf "%.2f/d%d" scale domains

let write_json ~scale ~domains ~total_wall ~total_virtual records path =
  let this_run = run_record ~scale ~domains ~total_wall ~total_virtual records in
  let key = config_key ~scale ~domains in
  let prev = previous_runs ~except:key path in
  (* Like-for-like speedup: the stored single-domain run at the same
     scale, if the file has one (this run itself when domains = 1). *)
  let speedup =
    if domains = 1 then []
    else
      match List.assoc_opt (config_key ~scale ~domains:1) prev with
      | Some base -> (
          match J.member "total_wall_s" base with
          | Some (J.Num base_wall) when total_wall > 0.0 ->
              [ ("speedup_vs_d1", J.Num (base_wall /. total_wall)) ]
          | _ -> [])
      | None -> []
  in
  let this_run = this_run @ speedup in
  let runs = prev @ [ (key, J.Obj this_run) ] in
  let runs = List.sort (fun (a, _) (b, _) -> compare a b) runs in
  let doc =
    J.Obj ((("schema", J.Str "wafl-bench/8") :: this_run) @ [ ("runs_by_config", J.Obj runs) ])
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  (match speedup with
  | [ (_, J.Num s) ] -> Printf.printf "speedup vs 1-domain run at scale %.2f: %.2fx\n%!" scale s
  | _ -> ());
  Printf.printf "wrote %s\n%!" path

(* WAFL_BENCH_ONLY="fig4,history" restricts the suite to the named
   figures (and drops the micro-benchmarks unless "micro" is listed) —
   the fast subset `make check` runs as its regression gate. *)
let only =
  match Sys.getenv_opt "WAFL_BENCH_ONLY" with
  | None | Some "" -> None
  | Some s -> Some (String.split_on_char ',' s |> List.map String.trim)

let want name = match only with None -> true | Some l -> List.mem name l

let figures scale =
  let json_rows fields rows = J.Arr (List.map (fun row -> J.Obj (fields row)) rows) in
  [
    figure "fig4" "Figure 4 (sequential write, permutations)" (H.Fig4.plan ~scale ())
      H.Fig4.print H.Fig4.shapes;
    figure "fig5" "Figure 5 (cleaner-thread scaling)" (H.Fig5.plan ~scale ()) H.Fig5.print
      H.Fig5.shapes;
    figure "fig6" "Figure 6 (infrastructure parallelization)" (H.Fig6.plan ~scale ())
      H.Fig6.print H.Fig6.shapes;
    figure "fig7" "Figure 7 (random write, permutations)" (H.Fig7.plan ~scale ()) H.Fig7.print
      H.Fig7.shapes;
    figure "fig8" "Figure 8 (OLTP peak throughput / knee latency)" (H.Fig8.plan ~scale ())
      H.Fig8.print H.Fig8.shapes;
    figure "fig9" "Figure 9 (throughput vs latency curves)" (H.Fig9.plan ~scale ()) H.Fig9.print
      H.Fig9.shapes;
    figure "batching" "Batched inode cleaning (SV-C)" (H.Batching.plan ~scale ())
      H.Batching.print H.Batching.shapes;
    figure "history" "History ablation (the SIII evolution: 2006 / 2008 / 2011)"
      (H.History.plan ~scale ()) H.History.print H.History.shapes;
    figure "ablation/chunk" "Design ablation: bucket chunk size (SIV-C)"
      (H.Ablation.plan_chunk ~scale ()) H.Ablation.print_chunk H.Ablation.shapes_chunk;
    figure "ablation/ranges" "Design ablation: Range-affinity instances (SIV-B2)"
      (H.Ablation.plan_ranges ~scale ()) H.Ablation.print_ranges H.Ablation.shapes_ranges;
    figure "crossover" "Crossover sweep: sequential -> random write" (H.Crossover.plan ~scale ())
      H.Crossover.print H.Crossover.shapes;
    figure "overload" "Overload: noisy-neighbor tenant isolation (QoS)"
      (H.Overload.plan ~scale ()) H.Overload.print
      ~extra:(fun rows ->
        [
          ( "overload",
            json_rows
              (fun row ->
                [
                  ("scenario", J.Str (H.Overload.scenario_name row.H.Overload.scenario));
                  ("goodput_ops_s", J.Num (H.Overload.goodput row));
                  ("shed_rate", J.Num (H.Overload.shed_rate row));
                  ("victim_p99_us", J.Num (H.Overload.victim_p99 row));
                ])
              rows );
        ])
      H.Overload.shapes;
    figure "flash" "Flash media model: WAF / GC push-back vs fill, OP, streaming"
      (H.Flash.plan ~scale ()) H.Flash.print
      ~extra:(fun rows ->
        [
          ( "flash",
            json_rows
              (fun row ->
                [
                  ("scenario", J.Str (H.Flash.scenario_name row.H.Flash.scenario));
                  ("waf", J.Num (H.Flash.waf row));
                  ("gc_stall_ms", J.Num (H.Flash.gc_stall_us row /. 1000.0));
                  ("write_p99_us", J.Num (H.Flash.write_p99 row));
                ])
              rows );
        ])
      H.Flash.shapes;
  ]
  |> List.filter (fun f -> want f.f_name)

(* Run the selected figures as one deduplicated batch, then print each
   figure's table and cost line in order.  Returns the records and the
   batch's elapsed host seconds. *)
let run_figures ~scale ~domains =
  let figs = figures scale in
  let t0 = Unix.gettimeofday () in
  let outs =
    H.Exp.execute ~domains ~run:timed_run
      (List.map (fun f -> H.Exp.with_results f.f_plan) figs)
  in
  let batch_wall = Unix.gettimeofday () -. t0 in
  let requested = List.fold_left (fun a (_, rs) -> a + List.length rs) 0 outs in
  Printf.printf "batch: %d specs, %d unique, %.1fs wall\n%!" requested (List.length !timings)
    batch_wall;
  let records =
    List.map2
      (fun f (report, results) ->
        section f.f_title;
        record_of f (report ()) results)
      figs outs
  in
  let all = List.concat_map (fun r -> r.r_shapes) records in
  section "Shape summary (paper-vs-measured, qualitative)";
  H.Exp.print_shapes all;
  let missed = List.filter (fun (_, ok) -> not ok) all in
  Printf.printf "\n%d/%d shapes reproduced\n%!"
    (List.length all - List.length missed)
    (List.length all);
  (records, batch_wall)

(* --- Bechamel micro-benchmarks of allocator primitives ------------------- *)

open Bechamel
open Toolkit

let bucket_bench () =
  (* One USE (take + tetris enqueue) amortized over a fresh bucket. *)
  let eng = Wafl_sim.Engine.create ~cores:1 () in
  let geom =
    Wafl_storage.Geometry.create ~drive_blocks:65536 ~aa_stripes:1024 ~raid_groups:[ (2, 1) ] ()
  in
  let disk = Wafl_storage.Disk.create geom in
  let raid = Wafl_storage.Raid.create eng ~cost:Wafl_sim.Cost.free ~disk ~rg:0 in
  let tetris =
    Wafl_core.Tetris.create eng ~cost:Wafl_sim.Cost.free ~raid ~expected_buckets:max_int
      ~blocks:0
  in
  let bucket = ref None in
  let next_base = ref 0 in
  let payload = Wafl_fs.Layout.Data { vol = 0; file = 0; fbn = 0; content = 0L } in
  Staged.stage (fun () ->
      let b =
        match !bucket with
        | Some b when not (Wafl_core.Bucket.is_exhausted b) -> b
        | _ ->
            let vbns = Array.init 64 (fun i -> (!next_base + i) mod 100_000) in
            next_base := (!next_base + 64) mod 100_000;
            let b =
              Wafl_core.Bucket.make
                ~target:(Wafl_core.Bucket.Phys { rg = 0; drive = 0 })
                ~tetris ~vbns ()
            in
            bucket := Some b;
            b
      in
      ignore (Wafl_core.Api.use b ~payload))

let bitmap_bench () =
  let map = Wafl_fs.Bitmap_file.create ~bits:(1 lsl 20) in
  let i = ref 0 in
  Staged.stage (fun () ->
      let bit = !i land 0xFFFFF in
      i := !i + 7919;
      if Wafl_fs.Bitmap_file.mem map bit then Wafl_fs.Bitmap_file.clear map bit
      else Wafl_fs.Bitmap_file.set map bit)

let bitmap_scan_bench () =
  let map = Wafl_fs.Bitmap_file.create ~bits:(1 lsl 20) in
  (* Fill all but every 512th bit so scans do real word-walking. *)
  for b = 0 to (1 lsl 20) - 1 do
    if b land 511 <> 0 then Wafl_fs.Bitmap_file.set map b
  done;
  let start = ref 0 in
  Staged.stage (fun () ->
      let b = Wafl_fs.Bitmap_file.find_free map ~lo:0 ~hi:((1 lsl 20) - 1) ~start:!start in
      start := if b >= 0 then (b + 1) land 0xFFFFF else 0)

let stage_bench () =
  let s = Wafl_core.Stage.create ~target:Wafl_core.Stage.Phys ~capacity:64 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      match Wafl_core.Stage.add s !i with
      | `Ok -> ()
      | `Full -> ignore (Wafl_core.Stage.drain s))

let cp_buffers_bench () =
  (* Collect and sort the CP snapshot of a file with 4 k dirty buffers,
     written in a scrambled order. *)
  let f = Wafl_fs.File.create ~vol:0 ~id:0 in
  for i = 0 to 4095 do
    Wafl_fs.File.write f ~fbn:(i * 2503 mod 4096) ~content:(Int64.of_int i)
  done;
  Wafl_fs.File.cp_snapshot f;
  Staged.stage (fun () -> ignore (Wafl_fs.File.cp_buffers f))

let stripe_bench () =
  (* Full/partial stripe count of one full-width stripe I/O. *)
  let eng = Wafl_sim.Engine.create ~cores:1 () in
  let geom =
    Wafl_storage.Geometry.create ~drive_blocks:65536 ~aa_stripes:1024 ~raid_groups:[ (10, 2) ] ()
  in
  let disk = Wafl_storage.Disk.create geom in
  let raid = Wafl_storage.Raid.create eng ~cost:Wafl_sim.Cost.free ~disk ~rg:0 in
  let vbns = Array.init 10 (fun drive -> Wafl_storage.Geometry.vbn_of geom ~rg:0 ~drive ~dbn:7) in
  Staged.stage (fun () -> ignore (Wafl_storage.Raid.stripe_mix raid vbns))

let engine_bench () =
  Staged.stage (fun () ->
      let eng = Wafl_sim.Engine.create ~cores:4 () in
      for _ = 1 to 50 do
        ignore (Wafl_sim.Engine.spawn eng (fun () -> Wafl_sim.Engine.consume 10.0))
      done;
      Wafl_sim.Engine.run eng)

let rng_bench () =
  let r = Wafl_util.Rng.create ~seed:1 in
  Staged.stage (fun () -> ignore (Wafl_util.Rng.bits64 r))

(* Minor words allocated, read with [Gc.minor_words]: Bechamel's own
   [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat], whose minor
   word count only advances at minor collections on OCaml 5.1, so it
   reads 0 for most primitives. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "words"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let micro () =
  section "Micro-benchmarks (real wall time of allocator primitives)";
  let test =
    Test.make_grouped ~name:"primitives"
      [
        Test.make ~name:"bucket USE (take + tetris enqueue)" (bucket_bench ());
        Test.make ~name:"activemap bit toggle (incl. dirty tracking)" (bitmap_bench ());
        Test.make ~name:"activemap find_free (sparse free)" (bitmap_scan_bench ());
        Test.make ~name:"stage add (drain amortized)" (stage_bench ());
        Test.make ~name:"File.cp_buffers (4 k buffers)" (cp_buffers_bench ());
        Test.make ~name:"RAID stripe count (one full stripe)" (stripe_bench ());
        Test.make ~name:"DES engine: 50 fibers spawn+run" (engine_bench ());
        Test.make ~name:"xoshiro256 star-star bits64" (rng_bench ());
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Instance.monotonic_clock and words = minor_words in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ clock; words ] test in
  (* Per-run OLS slope of one measure, by test name. *)
  let per_run instance =
    let est = Analyze.all ols instance raw in
    fun name ->
      match Analyze.OLS.estimates (Hashtbl.find est name) with
      | Some (e :: _) -> e
      | _ -> Float.nan
  in
  let ns = per_run clock and wpo = per_run words in
  (* lint-ok: sorted before printing. *)
  let names = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) raw []) in
  let t = Wafl_util.Table.create ~headers:[ "operation"; "ns/op"; "words/op" ] in
  List.iter
    (fun name ->
      Wafl_util.Table.add_row t
        [ name; Printf.sprintf "%.1f" (ns name); Printf.sprintf "%.1f" (wpo name) ])
    names;
  Wafl_util.Table.print t

let () =
  let scale = H.Exp.of_env () in
  (* Fan the batch's unique runs over the host's cores (WAFL_DOMAINS
     overrides).  Results are byte-identical at any count — only wall
     time changes — so the recorded domain count matters only for
     like-for-like wall-time comparison. *)
  let domains = Wafl_util.Pool.default_domains () in
  Printf.printf "WAFL White Alligator reproduction benchmark harness (scale %.2f, %d domain%s)\n"
    scale domains
    (if domains = 1 then "" else "s");
  let records, total_wall = run_figures ~scale ~domains in
  if want "micro" then micro ();
  Printf.printf "\ntotal wall time (figure batch): %.1fs\n" total_wall;
  let total_virtual =
    List.fold_left (fun a (r, _) -> a +. r.Driver.virtual_us) 0.0 !timings
  in
  let out = Option.value ~default:"BENCH_paper.json" (Sys.getenv_opt "WAFL_BENCH_OUT") in
  write_json ~scale ~domains ~total_wall ~total_virtual records out
