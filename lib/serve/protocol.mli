(** Wire protocol of [diagnose serve]: length-prefixed JSON frames.

    A frame is a decimal byte count on its own line, followed by
    exactly that many bytes of JSON payload and a terminating newline —
    in both directions.  The framing is line-oriented on purpose so a
    shell (and the cram suite) can drive a server with [printf]:

    {v
    req='{"op":"diagnose","circuit":"s27","seed":1}'
    printf '%d\n%s\n' "${#req}" "$req" | diagnose serve
    v}

    Every response is a JSON object with an ["ok"] field; when the
    request carried an ["id"], it is echoed verbatim as the response's
    first field.  All response JSON is deterministic (stats blocks are
    emitted without wall-clock times), so frame lengths are pinnable. *)

type diagnose = {
  id : Obs.Json.t option;      (** echoed verbatim in the response *)
  circuit : string;            (** golden circuit spec (file or builtin) *)
  faulty : string option;      (** explicit faulty circuit spec;
                                   [None] = inject [errors] errors *)
  errors : int;                (** injected error count (default 1) *)
  seed : int;                  (** injection + test-generation seed
                                   (default 1) *)
  k : int option;              (** correction size bound, at least 1
                                   (default [max 1 errors]) *)
  tests : int;                 (** failing tests wanted (default 16) *)
  max_solutions : int;         (** enumeration cap, not negative
                                   (default 1000) *)
  budget : Sat.Budget.t option;
      (** solver-effort cap, created at parse (= enqueue) time from
          ["budget_seconds"]/["budget_conflicts"]; the scheduler
          re-anchors the wall-clock window at dispatch
          ({!Sat.Budget.renewed}), so queue wait is not charged *)
  certify : bool;              (** independently verify solver answers *)
  stats : bool;                (** include a deterministic stats block *)
}

type request =
  | Load of { id : Obs.Json.t option; circuit : string }
      (** Parse/resolve a circuit into the cache and report its key. *)
  | Diagnose of diagnose
  | Batch of { id : Obs.Json.t option; requests : diagnose list }
      (** Independent diagnose requests scheduled across the domain
          pool.  Only diagnose requests may appear in a batch. *)
  | Stats of { id : Obs.Json.t option }
      (** Server-level counters (served, warm hits, cache hit/miss/
          eviction counts, cache sizes). *)
  | Metrics of { id : Obs.Json.t option; times : bool }
      (** Prometheus-style text exposition of the server's counters,
          gauges, cache ratios and latency-sketch quantiles.  With
          ["times": false] only the deterministic families are emitted
          (logical-tick/count data — cram-pinnable); the default
          [true] adds the wall-clock latency/queue-wait/GC summaries
          and rolling requests-per-second gauges. *)
  | Health of { id : Obs.Json.t option }
      (** Readiness/liveness plus cache occupancy and the in-flight
          count — fully deterministic. *)
  | Shutdown of { id : Obs.Json.t option }

exception Framing of string
(** A malformed frame (bad length line, truncated payload, missing
    terminator).  The stream cannot be resynchronized after this. *)

val read_frame : in_channel -> string option
(** The next frame's payload, or [None] at end of stream.
    @raise Framing on a malformed frame. *)

val write_frame : out_channel -> string -> unit
(** Write one frame and flush. *)

val parse : string -> (request, string) result
(** Decode a request payload.  Unknown ops, missing required fields,
    type mismatches, a [k] below 1, a negative [max_solutions] and
    invalid budgets all yield [Error] with a
    one-line message (the server answers with an error response and
    keeps serving). *)

val ok : ?id:Obs.Json.t -> (string * Obs.Json.t) list -> Obs.Json.t
(** [{"id":…,"ok":true,<fields>}] ([id] first when present). *)

val error : ?id:Obs.Json.t -> string -> Obs.Json.t
(** [{"id":…,"ok":false,"error":msg}]. *)
