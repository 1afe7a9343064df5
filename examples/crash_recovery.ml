(* Crash consistency demonstration (paper §II-C): operations are
   acknowledged from NVRAM; a crash at any point loses no acknowledged
   write.  The consistency point's copy-on-write discipline means the
   previous superblock's tree is untouched on disk, and NVRAM replay
   reconstructs everything after it.

     dune exec examples/crash_recovery.exe *)

open Wafl_sim
open Wafl_fs

let token ~round ~fbn = Int64.of_int ((round * 1_000_000) + fbn)

let () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (4, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng ~label:"app" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let file = Aggregate.create_file agg ~vol:(Volume.id vol) in
         (* Round 0 committed by a CP; round 1 only acknowledged in NVRAM. *)
         for fbn = 0 to 499 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id file) ~fbn
                ~content:(token ~round:0 ~fbn))
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         for fbn = 0 to 199 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id file) ~fbn
                ~content:(token ~round:1 ~fbn))
         done;
         Printf.printf "before crash: %d ops durable via CP, %d only in NVRAM\n" 500
           (Nvlog.pending (Aggregate.nvlog agg))));
  Engine.run eng;

  (* Pull the plug: all volatile state is gone.  Only the persistent
     image survives: the disk, the last superblock and the NVRAM log. *)
  let persistent : Image.t = Aggregate.crash agg in
  print_endline "CRASH: dropping all in-memory state";

  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default persistent in
  Printf.printf "recovered: superblock generation %d, replaying NVRAM\n"
    (Image.generation (Aggregate.tree agg2));
  ignore
    (Engine.spawn eng2 ~label:"verify" (fun () ->
         let lost = ref 0 in
         for fbn = 0 to 499 do
           let expected = if fbn < 200 then token ~round:1 ~fbn else token ~round:0 ~fbn in
           match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
           | Some c when c = expected -> ()
           | _ -> incr lost
         done;
         Printf.printf "verified 500 blocks after recovery: %d lost\n" !lost;
         (* The replayed tail is flushed by the next CP as usual. *)
         let walloc2 = Wafl_core.Walloc.create agg2 Wafl_core.Walloc.default_config in
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc2);
         Aggregate.fsck agg2;
         Printf.printf "post-recovery CP committed (generation %d), fsck clean\n"
           (Image.generation (Aggregate.tree agg2))));
  Engine.run eng2
