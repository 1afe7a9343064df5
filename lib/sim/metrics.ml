(* Typed metrics registry: counters, gauges and virtual-time histograms.

   One per engine, live from creation: a component registers its
   instruments once at construction time and updates them on the hot
   path with a single mutation (no hashing).  Run results, rollup
   windows, reports and the tracer's counter timeseries all read this
   one store.  All read-side iteration is name-sorted so nothing
   observable depends on hash order. *)

(* Float-only records are stored flat, so an update never boxes. *)
type counter = { mutable c_value : float }
type gauge = { mutable g_value : float }
type histo = { h_name : string; h_hist : Wafl_util.Histogram.t }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 32; histos = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_value = 0.0 } in
      Hashtbl.add t.counters name c;
      c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_value = 0.0 } in
      Hashtbl.add t.gauges name g;
      g

let histogram ?(lo = 0.01) ?(hi = 1e9) t name =
  match Hashtbl.find_opt t.histos name with
  | Some h -> h
  | None ->
      let h = { h_name = name; h_hist = Wafl_util.Histogram.create ~lo ~hi () } in
      Hashtbl.add t.histos name h;
      h

(* --- write side (hot path: one mutation, no lookup) ---------------------- *)

let incr c = c.c_value <- c.c_value +. 1.0
let add c n = c.c_value <- c.c_value +. float_of_int n
let addf c d = c.c_value <- c.c_value +. d
let set g v = g.g_value <- v
let shift g d = g.g_value <- g.g_value +. d
let observe h v = Wafl_util.Histogram.add h.h_hist v

(* --- read side (sorted, deterministic) ----------------------------------- *)

let value c = c.c_value

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0.0

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.g_value | None -> 0.0

let histo t name = Option.map (fun h -> h.h_hist) (Hashtbl.find_opt t.histos name)

let sorted_of tbl value =
  (* lint-ok: sorted before use. *)
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_of t.counters (fun c -> c.c_value)

let rec diff base cur =
  match (base, cur) with
  | _, [] -> []
  | (n0, v0) :: b, (n1, v1) :: c when String.equal n0 n1 -> (n1, v1 -. v0) :: diff b c
  | _, kv :: c -> kv :: diff base c
let gauges t = sorted_of t.gauges (fun g -> g.g_value)
let histograms t = sorted_of t.histos (fun h -> h.h_hist)
