(* Regression tests for failure modes found while building this system.
   Each test names the bug it guards against; these are the scenarios
   that once deadlocked, lost data, or diverged. *)

open Wafl_sim
open Wafl_fs
open Wafl_workload

(* Bug 1: idle cleaner threads retained partially-used buckets, starving
   the per-RAID-group refill cycle: with more cleaners than concurrently
   dirty inodes, the bucket cache drained and every cleaner parked in GET
   forever.  The trigger was many clients funnelling into few work
   messages on a machine with few drives. *)
let test_idle_cleaner_does_not_starve_refill_cycle () =
  let spec =
    {
      Driver.default_spec with
      Driver.cores = 20;
      clients = 24;
      volumes = 1;
      workload = Driver.Seq_write { file_blocks = 4096 };
      geometry =
        Wafl_storage.Geometry.create ~drive_blocks:65536 ~aa_stripes:1024
          ~raid_groups:[ (4, 1) ] ();
      nvlog_half = 4096;
      warmup = 100_000.0;
      measure = 300_000.0;
      cfg =
        {
          (Wafl_harness.Exp.wa_config ~cleaners:8 ~max_cleaners:8 ()) with
          Wafl_core.Walloc.cp_timer = Some 100_000.0;
        };
    }
  in
  let r = Driver.run spec in
  Alcotest.(check bool)
    (Printf.sprintf "progress under cleaner surplus (%d ops)" r.Driver.ops)
    true (r.Driver.ops > 1000)

(* Bug 2: the CP metafile pass held every bucket it drew from until the
   end of the pass; a random-write CP dirties thousands of container
   chunks, needing more buckets than exist, which deadlocked GET.  The
   pass must return exhausted buckets immediately. *)
let test_metafile_heavy_cp_completes () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry ~nvlog_half:16384 () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:32768 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         (* Scatter writes across the whole file so nearly every
            container chunk is dirty in one CP. *)
         let r = Wafl_util.Rng.create ~seed:99 in
         for _ = 1 to 8000 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f)
                ~fbn:(Wafl_util.Rng.int r 16000)
                ~content:7L)
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         (* A second scattered round reuses freed blocks. *)
         for _ = 1 to 8000 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f)
                ~fbn:(Wafl_util.Rng.int r 16000)
                ~content:8L)
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)));
  Engine.run eng;
  Alcotest.(check int) "two CPs completed" 2
    (Wafl_core.Cp.cps_completed (Wafl_core.Walloc.cp walloc));
  Aggregate.fsck agg

(* Bug 3: with a CP timer (or dynamic tuner) fiber alive, Engine.run
   without ~until never returns; drivers and tests must run in bounded
   slices.  Guard the engine-side contract: run ~until always returns
   even when periodic fibers exist. *)
let test_run_until_returns_with_periodic_fibers () =
  let eng = Engine.create ~cores:2 () in
  ignore
    (Engine.spawn eng ~label:"timer" (fun () ->
         while true do
           Engine.sleep 1_000.0
         done));
  Engine.run ~until:50_000.0 eng;
  Alcotest.(check (float 1e-6)) "clock at limit" 50_000.0 (Engine.now eng)

(* Bug 4: the serialized-infrastructure mode originally posted volume-side
   commits to per-volume affinities, leaking parallelism; everything must
   share the single Aggregate_vbn lane. *)
let test_serialized_infra_is_truly_serial () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry () in
  let cfg = { Wafl_core.Walloc.serialized_config with cleaner_threads = 4; max_cleaner_threads = 4 } in
  let walloc = Wafl_core.Walloc.create agg cfg in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let v1 = Aggregate.create_volume agg ~vvbn_space:16384 in
         let v2 = Aggregate.create_volume agg ~vvbn_space:16384 in
         Wafl_core.Walloc.register_volume walloc v1;
         Wafl_core.Walloc.register_volume walloc v2;
         List.iter
           (fun v ->
             let f = Aggregate.create_file agg ~vol:(Volume.id v) in
             for fbn = 0 to 999 do
               ignore
                 (Aggregate.write agg ~vol:(Volume.id v) ~file:(File.id f) ~fbn
                    ~content:(Int64.of_int fbn))
             done)
           [ v1; v2 ];
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)));
  Engine.run eng;
  (* In serialized mode no Range-affinity messages may execute. *)
  let kinds = Wafl_waffinity.Scheduler.executed_by_kind (Wafl_core.Walloc.scheduler walloc) in
  List.iter
    (fun (kind, n) ->
      if kind = "agg_range" || kind = "vol_range" || kind = "volume_vbn" then
        Alcotest.failf "serialized infra executed %d %s messages" n kind)
    kinds;
  Alcotest.(check bool) "aggregate_vbn lane used" true
    (List.mem_assoc "aggregate_vbn" kinds)

(* Bug 5: NVRAM overflow — clients that only reacted to the Half_full
   return value could overrun the log while a CP was in flight; the
   throttle must park them before the hard limit. *)
let test_clients_throttle_against_cp () =
  let spec =
    {
      Driver.default_spec with
      Driver.cores = 4;
      (* Few cores: CPs are slow relative to the offered load. *)
      clients = 8;
      volumes = 1;
      workload = Driver.Seq_write { file_blocks = 2048 };
      geometry = Driver.small_geometry ();
      nvlog_half = 512;
      warmup = 50_000.0;
      measure = 200_000.0;
      cfg = Wafl_harness.Exp.wa_config ~cleaners:2 ~max_cleaners:2 ();
    }
  in
  (* Must not raise "NVRAM exhausted". *)
  let r = Driver.run spec in
  Alcotest.(check bool) "survived with a tiny log" true (r.Driver.ops > 0)

(* Bug 6: blocks enqueued into a tetris after its refcount reached zero
   (metafile write-out racing bucket retirement) were silently dropped,
   corrupting recovery.  End-to-end guard: heavy metafile CPs followed by
   crash + recovery must read back exactly. *)
let test_no_lost_metafile_blocks_across_crash () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:32768 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let r = Wafl_util.Rng.create ~seed:5 in
         for round = 1 to 3 do
           for _ = 1 to 4000 do
             let fbn = Wafl_util.Rng.int r 12000 in
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                  ~content:(Int64.of_int ((round * 100_000) + fbn)))
           done;
           Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)
         done));
  Engine.run eng;
  let pers = Aggregate.crash agg in
  let eng2 = Engine.create ~cores:4 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  (* Every mapped block must be readable — a lost metafile block would
     surface as Corruption here. *)
  let f2 = Volume.file_exn (Aggregate.volume_exn agg2 0) 0 in
  let checked = ref 0 in
  for fbn = 0 to File.nfbns f2 - 1 do
    if File.vvbn_of_fbn f2 fbn >= 0 then begin
      (match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
      | Some _ -> ()
      | None -> Alcotest.failf "fbn %d mapped but unreadable" fbn);
      incr checked
    end
  done;
  Alcotest.(check bool) "thousands of blocks verified" true (!checked > 5000);
  Aggregate.fsck agg2


(* Cross-commit golden values.  [test_domains] pins byte-identity across
   domain counts within one build; nothing else pins a run's simulated
   outcome across commits.  A change that should only move host cost
   (allocation, wall time) must leave every figure below untouched: the
   values were recorded from the code before the allocation-free CP
   pipeline and must never be re-recorded to make a host-cost change
   pass.  The three small runs cover the sequential-write stripe path,
   the read/overwrite metafile path, and open-loop QoS with the flash
   FTL (GC, TRIM and the temperature stream classifier). *)
let golden_cfg =
  {
    Wafl_core.Walloc.default_config with
    Wafl_core.Walloc.cleaner_threads = 4;
    max_cleaner_threads = 8;
    cp_timer = Some 50_000.0;
  }

let golden_run workload =
  {
    Driver.default_spec with
    Driver.workload;
    seed = 7;
    cores = 8;
    clients = 12;
    volumes = 2;
    geometry = Driver.small_geometry ();
    cache_blocks = 2048;
    nvlog_half = 2048;
    cfg = golden_cfg;
    warmup = 30_000.0;
    measure = 120_000.0;
  }

let golden_specs =
  [
    ("seq", golden_run (Driver.Seq_write { file_blocks = 2048 }));
    ("oltp", golden_run (Driver.Oltp { file_blocks = 2048; read_fraction = 0.67 }));
    ( "overload+flash",
      {
        (golden_run
           (Driver.Skewed_write { file_blocks = 3072; hot_fraction = 0.1; hot_rate = 0.9 }))
        with
        Driver.clients = 6;
        volumes = 6;
        nvlog_half = 256;
        watermarks = Some { Wafl_fs.Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 };
        open_loop =
          Some
            {
              Driver.arrivals =
                Arrival.Bursty
                  {
                    base_rate = 2_000.0;
                    burst_rate = 30_000.0;
                    mean_on_us = 500.0;
                    mean_off_us = 4_000.0;
                  }
                :: List.init 5 (fun _ -> Arrival.Poisson { rate = 1_000.0 });
              qos = Some { Wafl_qos.Qos.rate_per_s = 15_000.0; burst = 64.0; queue_depth = 4096 };
            };
        flash =
          Some
            {
              Wafl_flash.Ftl.default_config with
              Wafl_flash.Ftl.logical_capacity = 0.33;
              op_ratio = 0.10;
              streams = 2;
              seed = 7;
            };
        telemetry = Some Driver.default_telemetry;
        cfg =
          {
            golden_cfg with
            Wafl_core.Walloc.cleaner_threads = 2;
            max_cleaner_threads = 4;
            fair_cp = true;
            streams = `Temperature;
          };
        warmup = 100_000.0;
        measure = 1_000_000.0;
      } );
  ]

type golden = {
  ops : int;
  vbns_allocated : int;
  vbns_freed : int;
  full_stripes : int;
  partial_stripes : int;
  cps : int;
  flash_gc_pages : int;
  write_hist : (int * int) list; (* non-zero (bucket, count) pairs *)
}

let golden_expected =
  [
    ( "seq",
      {
        ops = 31413;
        vbns_allocated = 64119;
        vbns_freed = 64152;
        full_stripes = 6478;
        partial_stripes = 2775;
        cps = 9;
        flash_gc_pages = 0;
        write_hist =
          [ (20, 4252); (21, 106); (22, 129); (23, 160); (24, 312); (25, 441); (26, 6820);
            (27, 126); (28, 217); (29, 2763); (30, 193); (31, 534); (32, 6977); (33, 581);
            (34, 4221); (35, 3200); (36, 149); (37, 88); (38, 35); (39, 1); (65, 48); (67, 6);
            (68, 6); (73, 12); (74, 23); (75, 13) ];
      } );
    ( "oltp",
      {
        ops = 15405;
        vbns_allocated = 10719;
        vbns_freed = 10557;
        full_stripes = 1111;
        partial_stripes = 641;
        cps = 3;
        flash_gc_pages = 0;
        write_hist =
          [ (32, 757); (33, 130); (34, 70); (35, 142); (36, 389); (37, 208); (38, 362);
            (39, 397); (40, 374); (41, 461); (42, 517); (43, 486); (44, 355); (45, 277);
            (46, 63); (47, 11) ];
      } );
    ( "overload+flash",
      {
        ops = 9746;
        vbns_allocated = 22596;
        vbns_freed = 18014;
        full_stripes = 0;
        partial_stripes = 9670;
        cps = 56;
        flash_gc_pages = 2035;
        write_hist =
          [ (32, 5301); (33, 808); (34, 712); (35, 379); (36, 190); (37, 190); (38, 152);
            (39, 148); (40, 144); (41, 139); (42, 133); (43, 145); (44, 137); (45, 151);
            (46, 127); (47, 136); (48, 148); (49, 119); (50, 112); (51, 81); (52, 73);
            (53, 53); (54, 39); (55, 29); (56, 31); (57, 14); (58, 18); (59, 3); (60, 3);
            (61, 1); (62, 4); (63, 4); (64, 1); (65, 2); (67, 1); (68, 2); (69, 4); (70, 3);
            (71, 2); (72, 2); (73, 5) ];
      } );
  ]

let golden_of (r : Driver.result) =
  let counts = Wafl_util.Histogram.counts r.Driver.write_latency in
  {
    ops = r.Driver.ops;
    vbns_allocated = r.Driver.vbns_allocated;
    vbns_freed = r.Driver.vbns_freed;
    full_stripes = r.Driver.full_stripes;
    partial_stripes = r.Driver.partial_stripes;
    cps = r.Driver.cps_completed;
    flash_gc_pages = r.Driver.flash_gc_pages;
    write_hist =
      List.filter (fun (_, c) -> c > 0) (List.mapi (fun i c -> (i, c)) (Array.to_list counts));
  }

let test_golden name () =
  let spec = List.assoc name golden_specs in
  let want = List.assoc name golden_expected in
  let got = golden_of (Driver.run spec) in
  let check field f = Alcotest.(check int) (name ^ " " ^ field) (f want) (f got) in
  check "ops" (fun g -> g.ops);
  check "vbns allocated" (fun g -> g.vbns_allocated);
  check "vbns freed" (fun g -> g.vbns_freed);
  check "full stripes" (fun g -> g.full_stripes);
  check "partial stripes" (fun g -> g.partial_stripes);
  check "CPs" (fun g -> g.cps);
  check "flash GC pages" (fun g -> g.flash_gc_pages);
  Alcotest.(check (list (pair int int))) (name ^ " write latency buckets") want.write_hist got.write_hist

(* The fleet shard experiment, pinned to the values of the partitioned
   engine it replaced: each shard's measured ops, CPs and utilization and
   the epoch count.  Only the fleet's "ops heard" total may move across
   that change, so it is deliberately left out. *)
let test_shard_golden () =
  let module S = Wafl_harness.Shard in
  let o = S.run ~scale:0.1 ~shards:3 () in
  Alcotest.(check (list string))
    "shard rows (ops/CPs/util)"
    [ "15564/4/0.407269"; "15564/4/0.392500"; "15564/4/0.401818" ]
    (List.map (fun r -> Printf.sprintf "%d/%d/%.6f" r.S.ops r.S.cps r.S.util) o.S.rows);
  Alcotest.(check int) "shard epochs" 8 o.S.epochs

(* The crash harness's summary text, pinned across commits: a small
   default batch and the publish-before-quiesce negative control, whose
   FAILED lines carry recovery's corruption messages.  Recovery and
   fsck changes that should be pure refactors must leave both texts
   byte-identical. *)
let crash_batch_default =
  "crash harness: 8/8 seeds passed\n\
  \  crashed mid-CP: 8   degraded at crash: 1   with torn tail: 7\n\
  \  faults seen: 0 media errors, 12 transient retries, 0 degraded reads, 8192 rebuilt blocks\n\
  \  overload: 14 back-to-back CPs, 7.0 ms client stall, 0 exhausted-write refusals\n"

let crash_batch_chaos =
  "crash harness: 0/8 seeds passed\n\
  \  crashed mid-CP: 8   degraded at crash: 1   with torn tail: 7\n\
  \  faults seen: 0 media errors, 11 transient retries, 0 degraded reads, 8192 rebuilt blocks\n\
  \  overload: 14 back-to-back CPs, 0.0 ms client stall, 0 exhausted-write refusals\n\
  \  FAILED seed 1: lost 33/2792 acked blocks (crash 47523us, phase io-flush)\n\
  \  FAILED seed 2: lost 2610/2610 acked blocks, fsck: recovery: aggmap chunk at pvbn 8719 \
   missing (crash 22292us, phase io-flush)\n\
  \  FAILED seed 3: lost 43/2791 acked blocks (crash 47007us, phase io-flush)\n\
  \  FAILED seed 4: lost 71/2711 acked blocks (crash 29064us, phase io-flush)\n\
  \  FAILED seed 5: lost 66/2710 acked blocks (crash 30113us, phase io-flush)\n\
  \  FAILED seed 6: lost 2797/2797 acked blocks, fsck: recovery: aggmap chunk at pvbn 10014 \
   missing (crash 50215us, phase io-flush)\n\
  \  FAILED seed 7: lost 45/2792 acked blocks (crash 47424us, phase io-flush)\n\
  \  FAILED seed 8: lost 2792/2792 acked blocks, fsck: recovery: aggmap chunk at pvbn 34846 \
   missing (crash 52483us, phase io-flush)\n"

let test_crash_batch_golden () =
  let module C = Wafl_harness.Crash in
  Alcotest.(check string) "default batch" crash_batch_default
    (C.summarize (C.run_seeds ~first_seed:1 ~count:8 ()));
  let chaos = { Aggregate.no_chaos with Aggregate.publish_before_quiesce = true } in
  Alcotest.(check string) "publish-before-quiesce batch" crash_batch_chaos
    (C.summarize (C.run_seeds ~chaos ~first_seed:1 ~count:8 ()))

let () =
  Alcotest.run "regressions"
    [
      ( "deadlocks and data loss",
        [
          Alcotest.test_case "idle cleaners don't starve refills" `Quick
            test_idle_cleaner_does_not_starve_refill_cycle;
          Alcotest.test_case "metafile-heavy CP completes" `Quick
            test_metafile_heavy_cp_completes;
          Alcotest.test_case "run ~until with periodic fibers" `Quick
            test_run_until_returns_with_periodic_fibers;
          Alcotest.test_case "serialized infra truly serial" `Quick
            test_serialized_infra_is_truly_serial;
          Alcotest.test_case "clients throttle against CP" `Quick
            test_clients_throttle_against_cp;
          Alcotest.test_case "no lost metafile blocks across crash" `Quick
            test_no_lost_metafile_blocks_across_crash;
        ] );
      ( "cross-commit golden",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_golden name))
          golden_specs
        @ [
            Alcotest.test_case "fleet shard" `Quick test_shard_golden;
            Alcotest.test_case "crash batch" `Quick test_crash_batch_golden;
          ] );
    ]
