open Wafl_workload

let of_env () =
  match Sys.getenv_opt "WAFL_SCALE" with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
  | None -> ( match Sys.getenv_opt "WAFL_QUICK" with Some ("1" | "true") -> 0.25 | _ -> 1.0)

(* A plan is either finished or waits on one round of driver runs; the
   continuation sees the results in the order the specs were listed. *)
type 'a plan = Done of 'a | Need of Driver.spec list * (Driver.result list -> 'a plan)

let runs specs f = Need (specs, fun rs -> Done (f rs))
let sweep points spec row = runs (List.map spec points) (List.map2 row points)

let rec bind p f =
  match p with Done x -> f x | Need (specs, k) -> Need (specs, fun rs -> bind (k rs) f)

let map f p = bind p (fun x -> Done (f x))

let with_results p =
  let rec go acc = function
    | Done x -> Done (x, List.rev acc)
    | Need (specs, k) -> Need (specs, fun rs -> go (List.rev_append rs acc) (k rs))
  in
  go [] p

(* The spec with its [obs] closure (results do not depend on
   observation) replaced by one shared value: [Hashtbl] compares keys
   with [compare], which never looks inside physically equal closures. *)
let key s = { s with Driver.obs = Driver.default_spec.Driver.obs }

(* One round: every pending spec of every plan, deduplicated by [key] in
   first-occurrence order, runs once on the pool; each plan's
   continuation then gets its own results back.  Runs are pure functions
   of their spec, so sharing one result between plans is the same as
   re-running it, and the pool merges in input order, so the outcome is
   byte-identical at any domain count. *)
let execute ~domains ~run plans =
  let rec go plans =
    if List.for_all (function Done _ -> true | Need _ -> false) plans then
      List.map (function Done x -> x | Need _ -> assert false) plans
    else begin
      let index = Hashtbl.create 64 and unique = ref [] in
      List.iter
        (function
          | Done _ -> ()
          | Need (specs, _) ->
              List.iter
                (fun s ->
                  let k = key s in
                  if not (Hashtbl.mem index k) then begin
                    Hashtbl.add index k (Hashtbl.length index);
                    unique := s :: !unique
                  end)
                specs)
        plans;
      let results = Array.of_list (Wafl_util.Pool.map ~domains run (List.rev !unique)) in
      go
        (List.map
           (function
             | Done _ as p -> p
             | Need (specs, k) ->
                 k (List.map (fun s -> results.(Hashtbl.find index (key s))) specs))
           plans)
    end
  in
  go plans

let spec_base ~scale =
  let d = Driver.default_spec in
  {
    d with
    Driver.warmup = Float.max 100_000.0 (d.Driver.warmup *. scale);
    measure = Float.max 200_000.0 (d.Driver.measure *. scale);
    workload =
      Driver.Seq_write { file_blocks = max 2048 (int_of_float (16384.0 *. scale)) };
  }

let wa_config ?(cleaners = 4) ?max_cleaners ?(parallel_infra = true) ?(dynamic = false)
    ?(batching = true) () =
  let max_cleaners = match max_cleaners with Some m -> m | None -> max cleaners 8 in
  {
    Wafl_core.Walloc.default_config with
    Wafl_core.Walloc.cleaner_threads = cleaners;
    max_cleaner_threads = max_cleaners;
    parallel_infra;
    dynamic_cleaners = dynamic;
    batching;
    cp_timer = Some 250_000.0;
  }

let gain_pct ~baseline v = if baseline <= 0.0 then 0.0 else (v /. baseline -. 1.0) *. 100.0
let shape name ok = (name, ok)

let print_shapes shapes =
  print_newline ();
  List.iter
    (fun (name, ok) -> Printf.printf "  shape %-58s %s\n" name (if ok then "[ok]" else "[MISS]"))
    shapes;
  flush stdout
