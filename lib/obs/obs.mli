(** Telemetry substrate: named monotonic counters, cumulative spans,
    fixed-bucket histograms and a bounded trace of typed phase events,
    collected into a registry and emitted as deterministic JSON.

    The paper's evaluation is an *effort* comparison (Table 2 runtimes,
    Table 3 quality); every engine in this repository records its solver
    effort (conflicts, propagations, decisions, learned clauses), phase
    timings, effort *distributions* (learnt-clause lengths, backtrack
    depths, candidate-set sizes) and phase *trajectories* (Begin/End
    events per engine stage) here, so that experiments, the CLI
    ([diagnose ... --stats] / [--trace]) and the bench harness report
    against one measurement layer.

    Determinism contract: counter values, histogram bucket counts and
    event streams (tick, name, phase, payload) depend only on the
    computation (all randomness is seeded), so [emit ~times:false] is
    bit-reproducible and safe to pin in cram tests.  Wall-clock data —
    span durations and the per-event ["ts"] stamp — is only included
    when [times:true]. *)

(** Minimal JSON tree: deterministic printing (object fields in the order
    given, [%.17g] floats) and a strict parser — enough to smoke-check
    that every stats block this repository emits round-trips. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering.  Non-finite floats become [null]. *)

  val parse : string -> (t, string) result
  (** Strict parse of one JSON value (surrounding whitespace allowed). *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

(** The one time source: {!span}, event ["ts"] fields, the engines'
    reported times and budget deadlines all use {!Clock.wall}.  Process
    CPU time sums over domains and freezes across waits, so it is never
    reported as elapsed time. *)
module Clock : sig
  val wall : unit -> float
  (** Wall-clock seconds since the epoch ([Unix.gettimeofday]). *)
end

(** Event phase, after the Chrome [trace_event] vocabulary: a [Begin]/
    [End] pair brackets a stage (nesting allowed), [Instant] marks a
    point occurrence. *)
type phase = Begin | End | Instant

type event = {
  tick : int;  (** logical clock: the event's index in emission order,
                   counted from registry creation (deterministic) *)
  name : string;
  phase : phase;
  payload : int;  (** engine-specific deterministic datum (solution
                      count, test count, ...); 0 when unused *)
  domain : int;  (** 0 for events emitted directly into this registry;
                     the worker-domain tag given to {!inject} or
                     {!absorb} otherwise *)
  wall : float;  (** {!Clock.wall} at emission; excluded from
                     deterministic output *)
}

(** Fixed power-of-two-bucket histograms over non-negative integers.
    Bucket 0 holds the value 0; bucket [i >= 1] holds values in
    [[2^(i-1), 2^i - 1]].  Counts only — no sums or means — so the
    contents are deterministic whenever the observations are. *)
module Histogram : sig
  type h

  val make : unit -> h

  val observe : h -> int -> unit
  (** Count one occurrence of a value.
      @raise Invalid_argument on a negative value. *)

  val observations : h -> int
  (** Total number of values observed. *)

  val buckets : h -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], ascending in [lo]. *)

  val bucket_of : int -> int
  (** The bucket index a value falls into.
      @raise Invalid_argument on a negative value. *)

  val bounds : int -> int * int
  (** [(lo, hi)] of a bucket index (the top bucket's [hi] is
      [max_int]). *)

  val merge : h -> h -> h
  (** A fresh histogram with element-wise summed counts — associative
      and commutative, and [merge (of xs) (of ys) = of (xs @ ys)]. *)

  val merge_into : into:h -> h -> unit
  (** In-place {!merge}: add the second histogram's counts to [into]. *)

  val equal : h -> h -> bool
end

(** Mergeable quantile sketch: a {!Histogram} plus the observation sum
    and the exact min/max, enough to answer interpolated quantile
    queries with per-bucket error while staying associative and
    commutative under {!Sketch.merge}.  All state is integer counts of
    deterministic observations, so sketches (and their quantiles) are
    bit-reproducible and safe to pin. *)
module Sketch : sig
  type s

  val make : unit -> s

  val observe : s -> int -> unit
  (** Record one non-negative value.
      @raise Invalid_argument on a negative value. *)

  val count : s -> int
  (** Number of values observed. *)

  val sum : s -> int
  (** Sum of all observed values. *)

  val min_value : s -> int
  (** Smallest observed value; [0] when empty. *)

  val max_value : s -> int
  (** Largest observed value; [0] when empty. *)

  val quantile : s -> float -> float
  (** [quantile s q] estimates the [q]-quantile ([q] clamped to
      [0..1]): the bucket holding the rank-[ceil (q * count)]
      observation is found by a cumulative-count walk and the value is
      linearly interpolated inside it, clamped to the observed
      [min..max] range.  The estimate is within one bucket width of the
      exact sorted-array quantile (see the differential oracle in
      [test_obs], which covers the empty case).

      An empty sketch has no interpolation interval; every quantile of
      it is the defined value [0.0] — the min = max = 0 convention of
      {!min_value}/{!max_value}, never a division by a zero count. *)

  val merge : s -> s -> s
  (** A fresh sketch holding both inputs' observations — associative,
      commutative, and [merge (of xs) (of ys) = of (xs @ ys)]. *)

  val merge_into : into:s -> s -> unit
  (** In-place {!merge}: fold the second sketch into [into]. *)

  val equal : s -> s -> bool

  val buckets : s -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], ascending in [lo]. *)

  val to_json : s -> Json.t
  (** [{ "count", "sum", "min", "max", "p50", "p90", "p99",
      "buckets" }] — deterministic whenever the observations are. *)
end

(** Rolling-window counters over an integer logical clock: rates such
    as requests/sec without unbounded memory.  The clock unit is the
    caller's choice (the server feeds whole wall seconds; tests drive a
    synthetic clock), and timestamps must be non-decreasing. *)
module Rolling : sig
  type r

  val make : window:int -> r
  (** A window of [window >= 1] clock units.
      @raise Invalid_argument if [window < 1]. *)

  val window : r -> int

  val note : ?by:int -> r -> now:int -> unit
  (** Count [by] (default 1) occurrences at timestamp [now].
      @raise Invalid_argument on a negative increment, a negative
      timestamp, or a timestamp earlier than a previous [note]. *)

  val in_window : r -> now:int -> int
  (** Occurrences with timestamps in [(now - window, now]]. *)

  val rate : r -> now:int -> float
  (** [in_window r ~now / window] — occurrences per clock unit. *)

  val total : r -> int
  (** Lifetime total, independent of the window. *)
end

(** A bounded ring buffer of {!event}s.  When more events are emitted
    than the buffer holds, the oldest are dropped (the totals remain
    exact). *)
module Trace : sig
  type tr

  val capacity : tr -> int

  val emitted : tr -> int
  (** Events emitted over the trace's lifetime, including dropped
      ones.  Also the next event's [tick]. *)

  val dropped : tr -> int
  (** [max 0 (emitted - capacity)]. *)

  val events : tr -> event list
  (** Retained events, oldest first. *)

  val to_chrome_json : tr -> Json.t
  (** The retained events in Chrome [trace_event] JSON (loadable in
      [chrome://tracing] / Perfetto): one object per event with [name],
      [cat] (the name's prefix up to the first ['/']), [ph]
      ([B]/[E]/[i]), [ts] in microseconds relative to the earliest
      retained event's {!Clock.wall} stamp, and the tick/payload under
      [args].  When the ring has dropped events, the stream leads with
      an explicit [obs/dropped] global instant whose [args.dropped]
      carries the drop count, so a truncated trace never reads as
      complete.  Not deterministic (wall-clock [ts]); for pinnable
      output use {!to_json}. *)
end

(** Severity-tagged structured log: a bounded ring of JSONL-renderable
    records plus an optional sink channel each record is written to (and
    flushed) as it is emitted.  Used by the serve layer for the
    slow-request log. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  val level_string : level -> string
  (** ["debug"] / ["info"] / ["warn"] / ["error"]. *)

  type record = {
    seq : int;  (** emission index, counted from [make] *)
    level : level;
    req : string;  (** request correlation id; [""] when none *)
    name : string;  (** event name, e.g. ["serve/slow"] *)
    payload : Json.t;  (** structured detail; [Null] when none *)
    wall : float;  (** {!Clock.wall} at emission *)
  }

  type l

  val make : ?capacity:int -> ?sink:out_channel -> unit -> l
  (** A log retaining the last [capacity] records (default 256).  When
      [sink] is given, every record is also written to it as one JSON
      line (with the wall-clock ["ts"]) and flushed immediately. *)

  val log : l -> ?payload:Json.t -> ?req:string -> level:level -> string -> unit
  (** Emit one record under the given event name. *)

  val emitted : l -> int
  (** Records emitted over the log's lifetime, including dropped ones. *)

  val dropped : l -> int
  (** [max 0 (emitted - capacity)]. *)

  val records : l -> record list
  (** Retained records, oldest first. *)

  val record_json : ?times:bool -> record -> Json.t
  (** [{ "seq", "level", "req", "event", "payload" }] plus ["ts"] when
      [times] (default [true]). *)

  val to_json : ?times:bool -> l -> Json.t
  (** [{ "emitted", "dropped", "items": [...] }], oldest first. *)
end

type t
(** A registry of named counters, spans, histograms and one trace. *)

type counter
(** A monotonic integer counter owned by a registry. *)

val create : ?trace_capacity:int -> unit -> t
(** [trace_capacity] bounds the event ring buffer (default 4096). *)

val counter : t -> string -> counter
(** Find-or-create the counter with this name. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter.
    @raise Invalid_argument if [by < 0]. *)

val value : counter -> int

val add : t -> string -> int -> unit
(** [add t name n] — find-or-create and bump in one step. *)

val set : t -> string -> int -> unit
(** Overwrite a counter (for gauge-style snapshots). *)

val record_span : t -> string -> float -> unit
(** Accumulate [seconds] under the named span and count one call.
    @raise Invalid_argument unless [seconds >= 0.0]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Time the thunk with {!Clock.wall} and record it under the name.
    Exceptions propagate; the partial duration is still recorded. *)

val histogram : t -> string -> Histogram.h
(** Find-or-create the histogram with this name. *)

val observe : t -> string -> int -> unit
(** [observe t name v] — find-or-create and {!Histogram.observe} in one
    step.
    @raise Invalid_argument on a negative value. *)

val trace : t -> Trace.tr
(** The registry's event trace. *)

val event : t -> ?payload:int -> string -> phase -> unit
(** Emit one event into the trace, stamped with the next logical tick
    and {!Clock.wall}. *)

val inject : t -> ?payload:int -> ?domain:int -> ?wall:float -> string ->
  phase -> unit
(** Like {!event} but with an explicit domain tag and wall stamp: the
    serve layer uses this to stitch spans measured on worker domains
    into one session trace with their original timestamps (the Chrome
    export maps [domain] to the [tid] track). *)

val absorb : into:t -> domain:int -> event list -> unit
(** Append captured events (e.g. {!Trace.events} of a per-request
    registry) into [into]'s trace via {!inject}: re-ticked by the
    receiving trace, tagged with [domain], original wall stamps and
    payloads preserved. *)

val begin_event : t -> ?payload:int -> string -> unit
(** [event t name Begin]. *)

val end_event : t -> ?payload:int -> string -> unit
(** [event t name End]. *)

val instant : t -> ?payload:int -> string -> unit
(** [event t name Instant]. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val spans : t -> (string * float * int) list
(** All spans as (name, total seconds, calls), sorted by name. *)

val histograms : t -> (string * Histogram.h) list
(** All histograms, sorted by name. *)

val reset : t -> unit
(** Return the registry to the pristine state of a fresh [create]: all
    counter/span/histogram names are dropped (not merely zeroed), the
    trace ring is emptied and its logical tick restarts at 0, so
    [to_json] of a reset registry is byte-identical to that of a fresh
    one.  Handles obtained before the reset ({!counter},
    {!histogram}, …) are detached — updates through them are no longer
    visible; re-acquire handles (and re-attach any solver hooks, e.g.
    [Sat.Solver.attach_obs]) after resetting. *)

val to_json : ?times:bool -> t -> Json.t
(** [{ "counters": {...}, "histograms": {...}, "events": {...},
    "spans": {...} }], counter/histogram fields sorted by name.

    ["histograms"] maps each name to
    [{ "count": n, "buckets": [[lo, hi, count], ...] }] (non-empty
    buckets only).  ["events"] is
    [{ "emitted": n, "dropped": d, "items": [...] }] with the retained
    events oldest first; each item carries [tick]/[name]/[ph]/[arg].
    When [d > 0] the items lead with an explicit marker record
    [{ "tick": -1, "name": "obs/dropped", "ph": "i", "arg": d }] so a
    truncated stream is visibly truncated.

    [times] (default [true]) controls whether the non-deterministic
    wall-clock data is included: the ["spans"] object and the per-event
    ["ts"] field.  With [times:false] the output is bit-reproducible
    under a fixed seed. *)

val emit : ?times:bool -> t -> string
(** [Json.to_string (to_json t)]. *)
