(* Multicore host execution: the domain pool and the end-to-end
   byte-identity guarantee.

   The tentpole claim of the multicore work is that parallelism is pure
   mechanism — a run fanned over N worker domains returns exactly what
   the serial run returns, bit for bit.  These tests pin that claim at
   both layers: Pool.run/map (input-order merge, exception propagation),
   and the full harnesses (figs 4-9, overload, flash, crash seeds, fleet
   shard) at 1 vs 4 domains with polymorphic equality over the complete
   row structures, exactly like test_sanitize.ml does for the
   sanitizer. *)

module H = Wafl_harness
module Pool = Wafl_util.Pool

let scale = 0.02

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_input_order () =
  let tasks = List.init 23 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order regardless of completion order"
    (List.init 23 (fun i -> i * i))
    (Pool.run ~domains:4 tasks);
  Alcotest.(check (list int))
    "map matches List.map"
    (List.map (fun x -> x + 1) [ 5; 3; 8 ])
    (Pool.map ~domains:3 (fun x -> x + 1) [ 5; 3; 8 ])

let test_pool_more_domains_than_tasks () =
  Alcotest.(check (list int)) "domains > tasks" [ 7 ] (Pool.run ~domains:8 [ (fun () -> 7) ]);
  Alcotest.(check (list int)) "empty task list" [] (Pool.run ~domains:4 [])

exception Boom of int

let test_pool_exception_first_in_input_order () =
  let tasks =
    [
      (fun () -> 1);
      (fun () -> raise (Boom 2));
      (fun () -> 3);
      (fun () -> raise (Boom 4));
    ]
  in
  List.iter
    (fun domains ->
      match Pool.run ~domains tasks with
      | _ -> Alcotest.failf "expected Boom at %d domains" domains
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "first input-order exception at %d domains" domains)
            2 n)
    [ 1; 4 ]

let test_pool_default_domains () =
  Alcotest.(check bool) "default_domains >= 1" true (Pool.default_domains () >= 1)

(* --- harness byte-identity: Exp.execute at 1 vs 4 domains --------------- *)

let with_domains n f =
  match H.Exp.execute ~domains:n ~run:Wafl_workload.Driver.run [ f () ] with
  | [ v ] -> v
  | _ -> assert false

let check_fig name f =
  let serial = with_domains 1 f in
  let par = with_domains 4 f in
  (* Polymorphic equality over the full row structure: every counter,
     float and latency histogram must match exactly. *)
  Alcotest.(check bool) (name ^ ": 4-domain run bit-identical to serial") true (serial = par)

let test_fig4 () = check_fig "fig4" (fun () -> H.Fig4.plan ~scale ())
let test_fig5 () = check_fig "fig5" (fun () -> H.Fig5.plan ~scale ~thread_counts:[ 1; 4 ] ())
let test_fig6 () = check_fig "fig6" (fun () -> H.Fig6.plan ~scale ())
let test_fig7 () = check_fig "fig7" (fun () -> H.Fig7.plan ~scale ())
let test_fig8 () = check_fig "fig8" (fun () -> H.Fig8.plan ~scale ())
let test_fig9 () = check_fig "fig9" (fun () -> H.Fig9.plan ~scale ~levels:2 ())
let test_overload () = check_fig "overload" (fun () -> H.Overload.plan ~scale ())
let test_flash () = check_fig "flash" (fun () -> H.Flash.plan ~scale ())

let test_crash_seeds () =
  let run domains =
    H.Crash.run_seeds ~ops:20_000 ~horizon:20_000.0 ~domains ~first_seed:1 ~count:5 ()
  in
  let serial = run 1 and par = run 4 in
  Alcotest.(check bool) "crash: all seeds pass" true (List.for_all H.Crash.passed par);
  Alcotest.(check bool) "crash: 4-domain outcomes bit-identical" true (serial = par)

let test_shard_digest () =
  let digest domains = H.Shard.digest (H.Shard.run ~scale:0.1 ~shards:3 ~domains ()) in
  let d1 = digest 1 in
  Alcotest.(check string) "shard: 2-domain digest identical" d1 (digest 2);
  Alcotest.(check string) "shard: 4-domain digest identical" d1 (digest 4);
  let o = H.Shard.run ~scale:0.1 ~shards:3 ~domains:4 () in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (H.Shard.shapes o)

let () =
  Alcotest.run "domains"
    [
      ( "pool",
        [
          Alcotest.test_case "input-order merge" `Quick test_pool_input_order;
          Alcotest.test_case "more domains than tasks" `Quick test_pool_more_domains_than_tasks;
          Alcotest.test_case "first exception wins" `Quick test_pool_exception_first_in_input_order;
          Alcotest.test_case "default domain count" `Quick test_pool_default_domains;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "fig4" `Slow test_fig4;
          Alcotest.test_case "fig5" `Slow test_fig5;
          Alcotest.test_case "fig6" `Slow test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "fig8" `Slow test_fig8;
          Alcotest.test_case "fig9" `Slow test_fig9;
          Alcotest.test_case "overload" `Slow test_overload;
          Alcotest.test_case "flash" `Slow test_flash;
          Alcotest.test_case "crash five seeds" `Slow test_crash_seeds;
          Alcotest.test_case "fleet shard digest" `Slow test_shard_digest;
        ] );
    ]
