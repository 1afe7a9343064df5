(** Typed metrics registry: counters, gauges and virtual-time histograms.

    Every engine owns one registry ({!Engine.metrics}), live from creation
    whether or not a tracer is attached: it is the single store of every
    cumulative statistic a run reports.  Components register instruments
    once at construction time (a name lookup) and update them on the hot
    path with a single field mutation.  Results, rollups, reports and the
    tracer's counter timeseries are views over it; read-side iteration is
    always name-sorted, so nothing depends on hash order.  Observe-only:
    no model decision reads it. *)

type t
type counter
type gauge
type histo

val create : unit -> t

(** {1 Registration (find-or-create by name)} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : ?lo:float -> ?hi:float -> t -> string -> histo
(** Log-bucketed histogram of virtual-time values (default range
    0.01..1e9 virtual microseconds). *)

(** {1 Hot-path updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val addf : counter -> float -> unit
val set : gauge -> float -> unit
val observe : histo -> float -> unit

val shift : gauge -> float -> unit
(** Add a (possibly negative) delta to a gauge, e.g. a level several
    components raise and lower. *)

(** {1 Reading (deterministic: missing names read as 0 / [None])} *)

val value : counter -> float
(** A counter's current value, read through its handle. *)

val counter_value : t -> string -> float
val gauge_value : t -> string -> float
val histo : t -> string -> Wafl_util.Histogram.t option

val counters : t -> (string * float) list
(** All counters, sorted by name. *)

val diff : (string * float) list -> (string * float) list -> (string * float) list
(** [diff base cur]: [cur - base] per name, over two name-sorted readings
    of the same registry taken in that order ({!counters} or {!gauges});
    a name absent from [base] (registered since) counts from 0. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * Wafl_util.Histogram.t) list
