open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry

type row = { shard : int; ops : int; cps : int; util : float }

type outcome = {
  rows : row list;
  epochs : int;
  fleet_reported : int;
  horizon : float;
  telemetry : Wafl_obs.Rollup.snapshot;
      (* per-shard rollup snapshots merged deterministically (volume ids
         namespaced by shard) *)
}

(* Per-shard rollup config: fine windows so even the scaled-down smoke
   run seals a few, with the ring budget sized to match. *)
let rollup_config =
  {
    Wafl_obs.Rollup.default_config with
    Wafl_obs.Rollup.window_us = 2_000.0;
    windows = 16;
    vol_budget_bytes = 8192;
  }

(* Global CP epochs begin every [epoch_us]; each epoch's CP request
   reaches every shard [tick_delay] later, so shard ticks fall at
   [k * epoch_us + tick_delay] for k >= 1. *)
let epoch_us = 6_000.0
let tick_delay = 1_000.0
let clients_per_shard = 6
let files_per_shard = 4
let fbn_space = 700

(* Same small-geometry stack as the crash harness: 2 groups x (3 + 1)
   small drives per shard. *)
let geometry () =
  Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1); (3, 1) ] ()

type shard_state = {
  eng : Engine.t;
  ops_done : Metrics.counter;
  cp : Wafl_core.Cp.t;
  roll : Wafl_obs.Rollup.t;
}

let setup sid ~seed =
  let eng = Engine.create ~cores:4 () in
  (* Every shard engine owns its registry, so the rollup below reads this
     shard's counters only; no tracer is needed for them. *)
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry:(geometry ()) ~nvlog_half:2048 () in
  (* CPs come only from the global epoch ticks (and log-half-full
     self-defense), so per-shard CP counts expose the coupling. *)
  let cfg =
    { (Wafl_core.Walloc.default_config) with Wafl_core.Walloc.cleaner_threads = 2; cp_timer = None }
  in
  let walloc = Wafl_core.Walloc.create agg cfg in
  let ops_done = Metrics.counter (Engine.metrics eng) "ops" in
  let roll =
    Wafl_obs.Rollup.create ~config:rollup_config
      ~counters:[ "ops"; "cp.count"; "cp.b2b"; "nvlog.stall_us" ]
      eng
  in
  ignore
    (Engine.spawn eng ~label:"client" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         let vid = Volume.id vol in
         Wafl_core.Walloc.register_volume walloc vol;
         let files =
           Array.init files_per_shard (fun _ -> File.id (Aggregate.create_file agg ~vol:vid))
         in
         for c = 0 to clients_per_shard - 1 do
           let rng =
             Wafl_util.Rng.create ~seed:(seed lxor (((sid * 31) + c) * 0x9e3779b9) lxor 0x517cc1b7)
           in
           ignore
             (Engine.spawn eng ~label:"client" (fun () ->
                  let i = ref 0 in
                  while true do
                    incr i;
                    let started = Engine.now eng in
                    Wafl_obs.Rollup.count roll ~vol:vid `Admitted;
                    Aggregate.wait_for_log_space agg;
                    let file = files.(Wafl_util.Rng.int rng files_per_shard) in
                    let fbn = Wafl_util.Rng.int rng fbn_space in
                    let content = Int64.of_int ((!i * 131) + (sid * 17) + fbn) in
                    (match Aggregate.write agg ~vol:vid ~file ~fbn ~content with
                    | `Ok -> Metrics.incr ops_done
                    | `Log_half_full ->
                        Wafl_core.Cp.request (Wafl_core.Walloc.cp walloc);
                        Metrics.incr ops_done
                    | `Log_exhausted -> ());
                    Wafl_obs.Rollup.count roll ~vol:vid `Completed;
                    Wafl_obs.Rollup.observe_write roll ~vol:vid (Engine.now eng -. started);
                    Engine.consume 3.0
                  done))
         done));
  { eng; ops_done; cp = Wafl_core.Walloc.cp walloc; roll }

let ops s = int_of_float (Metrics.value s.ops_done)

type shard_result = { row : row; heard : int; snap : Wafl_obs.Rollup.snapshot }

(* One shard, start to finish, on whichever domain runs it.  The host
   drives the epoch ticks: advance the engine to each tick time, then
   inject that epoch's CP request (and its op-count report) as a fiber
   at exactly that time.  A tick at or past [until] belongs to the next
   run, so one landing exactly on the warmup boundary is delivered in
   the measurement window. *)
let run_shard ~warmup ~measure ~seed sid =
  let s = setup sid ~seed in
  let heard = ref 0 in
  let next_tick = ref (epoch_us +. tick_delay) in
  let advance ~until =
    while !next_tick < until do
      Engine.run ~until:!next_tick s.eng;
      ignore
        (Engine.spawn s.eng ~label:"epoch" ~at:!next_tick (fun () ->
             Wafl_core.Cp.request s.cp;
             heard := ops s));
      next_tick := !next_tick +. epoch_us
    done;
    Engine.run ~until s.eng
  in
  advance ~until:warmup;
  let ops0 = ops s and cps0 = Wafl_core.Cp.cps_completed s.cp in
  Engine.reset_accounting s.eng;
  advance ~until:(warmup +. measure);
  {
    row =
      {
        shard = sid;
        ops = ops s - ops0;
        cps = Wafl_core.Cp.cps_completed s.cp - cps0;
        util = Engine.utilization s.eng;
      };
    heard = !heard;
    snap = Wafl_obs.Rollup.snapshot s.roll;
  }

let run ?(scale = 1.0) ?(shards = 4) ?(domains = 1) ?(seed = 42) () =
  let warmup = Float.max 20_000.0 (100_000.0 *. scale) in
  let measure = Float.max 50_000.0 (400_000.0 *. scale) in
  let horizon = warmup +. measure in
  let results =
    Wafl_util.Pool.map ~domains (run_shard ~warmup ~measure ~seed) (List.init shards Fun.id)
  in
  (* Epochs whose broadcast falls in the measurement window. *)
  let epochs =
    let first = Float.to_int (Float.ceil (warmup /. epoch_us))
    and last = Float.to_int (Float.ceil (horizon /. epoch_us)) - 1 in
    max 0 (last - max 1 first + 1)
  in
  {
    rows = List.map (fun r -> r.row) results;
    epochs;
    fleet_reported = List.fold_left (fun acc r -> acc + r.heard) 0 results;
    horizon;
    telemetry =
      Wafl_obs.Rollup.merge_snapshots (List.mapi (fun sid r -> (sid, r.snap)) results);
  }

let digest o =
  let b = Buffer.create 128 in
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf "s%d:%d/%d/%.6f;" r.shard r.ops r.cps r.util))
    o.rows;
  Buffer.add_string b (Printf.sprintf "e%d;f%d;h%.1f" o.epochs o.fleet_reported o.horizon);
  (* The full merged rollup snapshot rides in the digest, so any
     window/counter/sketch divergence across domain counts is caught. *)
  Buffer.add_string b ";t";
  Buffer.add_string b (Wafl_obs.Json.to_string (Wafl_obs.Rollup.snapshot_to_json o.telemetry));
  Buffer.contents b

let shapes o =
  let cps = List.map (fun r -> r.cps) o.rows in
  let ops = List.map (fun r -> float_of_int r.ops) o.rows in
  let min_l = List.fold_left min max_int cps and max_l = List.fold_left max 0 cps in
  let mean = List.fold_left ( +. ) 0.0 ops /. float_of_int (max 1 (List.length ops)) in
  let spread_ok =
    List.for_all (fun v -> Float.abs (v -. mean) <= 0.25 *. Float.max 1.0 mean) ops
  in
  [
    Exp.shape "shard: every shard checkpoints on the global epoch barrier"
      (min_l > 0 && max_l - min_l <= 2);
    Exp.shape "shard: uniform load spreads within 25% of mean across shards" spread_ok;
    Exp.shape "shard: coordinator heard op telemetry from the fleet" (o.fleet_reported > 0);
  ]

let print ~shards ~domains o =
  Printf.printf "\nFleet shard: %d independent aggregate shards (%d domain%s)\n" shards domains
    (if domains = 1 then "" else "s");
  Printf.printf "  global CP epochs in measure window: %d   fleet ops heard: %d\n" o.epochs
    o.fleet_reported;
  let tbl = Wafl_util.Table.create ~headers:[ "shard"; "ops"; "ops/s"; "CPs"; "util" ] in
  List.iter
    (fun r ->
      Wafl_util.Table.add_row tbl
        [
          string_of_int r.shard;
          string_of_int r.ops;
          Printf.sprintf "%.0f" (float_of_int r.ops /. (o.horizon /. 1e6));
          string_of_int r.cps;
          Printf.sprintf "%.2f" r.util;
        ])
    o.rows;
  Wafl_util.Table.print tbl;
  let windows = List.length o.telemetry.Wafl_obs.Rollup.s_windows in
  let writes =
    List.fold_left
      (fun acc w ->
        List.fold_left (fun a (_, r) -> a + r.Wafl_obs.Rollup.vr_writes) acc w.Wafl_obs.Rollup.w_vols)
      0 o.telemetry.Wafl_obs.Rollup.s_windows
  in
  Printf.printf "  telemetry: %d merged rollup windows, %d windowed writes\n" windows writes;
  Printf.printf "  digest %s\n" (Digest.to_hex (Digest.string (digest o)))
