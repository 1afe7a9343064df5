(* Positive fixture for the domain-safety pass: module-level mutable
   state written from closures the worker-domain pool executes.  The
   analyzer must flag the bare counter, the captured accumulator, the
   named worker function and the run function handed to the plan
   executor — and stay silent on the mutex-guarded twin, which follows
   the sanctioned host-locking discipline. *)

let racy_hits = ref 0

(* Unguarded: every worker domain increments the module-level counter. *)
let run_racy xs =
  Wafl_util.Pool.map ~domains:4
    (fun x ->
      racy_hits := !racy_hits + x;
      x)
    xs

(* Unguarded capture: a host local smuggled across the pool boundary. *)
let run_captured xs =
  let acc = ref 0 in
  ignore (Wafl_util.Pool.map ~domains:4 (fun x -> acc := !acc + x) xs);
  !acc

let named_total = ref 0
let named_worker x = named_total := !named_total + x

(* The named function reaches the pool by value, not as a lambda. *)
let run_named xs = Wafl_util.Pool.map ~domains:4 named_worker xs

(* The plan executor applies [~run] on worker domains: a counting
   wrapper around the driver races unless it takes a lock. *)
let planned_runs = ref 0

let counting_run spec =
  planned_runs := !planned_runs + 1;
  Wafl_workload.Driver.run spec

let run_planned specs =
  Wafl_harness.Exp.execute ~domains:2 ~run:counting_run [ Wafl_harness.Exp.runs specs Fun.id ]

(* Guarded twin: same shape under a host mutex — must not be flagged. *)
let guarded_total = ref 0
let guard = Mutex.create ()

let run_guarded xs =
  Wafl_util.Pool.map ~domains:4
    (fun x ->
      Mutex.lock guard;
      guarded_total := !guarded_total + x;
      Mutex.unlock guard;
      x)
    xs
