(* Snapshots: each consistency point is "a self-consistent point-in-time
   image of the file system" (paper §II-C); a snapshot pins one of them.
   Because WAFL never overwrites a block in place, the pinned image stays
   intact on disk no matter how much the active file system churns.

     dune exec examples/snapshots.exe *)

open Wafl_sim
open Wafl_fs

let token ~gen ~fbn = Int64.of_int ((gen * 1_000_000) + fbn)

let () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (4, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let free () = Counters.read (Aggregate.counters agg) "agg_free_blocks" in
  ignore
    (Engine.spawn eng ~label:"app" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let file = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let blocks = 500 in
         for fbn = 0 to blocks - 1 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id file) ~fbn
                ~content:(token ~gen:0 ~fbn))
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         Printf.printf "generation 0 committed; free blocks: %d\n" (free ());

         let snap = Aggregate.create_snapshot agg ~name:"monday" in
         Printf.printf "snapshot %S pins CP generation %d\n" (Snapshot.name snap)
           (Snapshot.generation snap);

         (* Overwrite everything, twice.  Copy-on-write means new blocks
            are allocated while the snapshot's blocks stay pinned. *)
         for gen = 1 to 2 do
           for fbn = 0 to blocks - 1 do
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id file) ~fbn
                  ~content:(token ~gen ~fbn))
           done;
           Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)
         done;
         Printf.printf "two overwrites later; free blocks: %d (%d pinned by snapshot)\n"
           (free ())
           (Counters.read (Aggregate.counters agg) "snapshot_held_blocks");

         let active = Aggregate.read agg ~vol:(Volume.id vol) ~file:(File.id file) ~fbn:7 in
         let old =
           Image.read_snapshot (Aggregate.tree agg) snap ~vol:(Volume.id vol) ~file:(File.id file)
             ~fbn:7
         in
         Printf.printf "fbn 7: active view = %Ld, snapshot view = %Ld\n"
           (Option.get active) (Option.get old);

         Aggregate.delete_snapshot agg snap;
         Printf.printf "snapshot deleted; free blocks: %d\n" (free ());
         Aggregate.fsck agg;
         print_endline "fsck clean"));
  Engine.run eng
