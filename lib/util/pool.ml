(* Worker-domain pool.  See the interface for the contract; the
   implementation is a shared atomic task index: each domain claims the
   next unclaimed task, writes its result into a slot keyed by the
   task's input position, and the caller reads the slots back in input
   order after every domain joins.  Completion order is irrelevant, so
   the merge is deterministic by construction. *)

let default_domains () =
  match Sys.getenv_opt "WAFL_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
  | None -> Domain.recommended_domain_count ()

(* A task either produced a value or raised; [Pending] only survives a
   task that never ran, which cannot happen once every domain joins. *)
type 'a slot = Pending | Value of 'a | Raised of exn

let run ~domains tasks =
  match tasks with
  | [] -> []
  | [ t ] -> [ t () ]
  | _ when domains <= 1 -> List.map (fun t -> t ()) tasks
  | _ ->
      let tasks = Array.of_list tasks in
      let n = Array.length tasks in
      let slots = Array.make n Pending in
      let next = Atomic.make 0 in
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else
            slots.(i) <- (match tasks.(i) () with v -> Value v | exception e -> Raised e)
        done
      in
      (* The calling domain is one of the workers, so [domains] bounds the
         total concurrency, not the extra threads. *)
      let spawned = List.init (min (domains - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned;
      (* First failure in input order wins, whatever order tasks ran in. *)
      Array.iter (function Raised e -> raise e | _ -> ()) slots;
      Array.to_list
        (Array.map (function Value v -> v | Pending | Raised _ -> assert false) slots)

let map ~domains f xs = run ~domains (List.map (fun x () -> f x) xs)
