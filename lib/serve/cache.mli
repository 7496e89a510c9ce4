(** A small deterministic LRU cache (recency by insertion/lookup
    stamp).

    [add] never evicts on its own: insertion and eviction are separate
    so a request batch can insert every context it needs and only
    {!trim} once the batch has drained — an entry in flight on a worker
    domain is never evicted under it.  All operations are meant for the
    server's main domain only. *)

type ('k, 'v) t

val create : ?obs:Obs.t -> ?name:string -> capacity:int -> unit -> ('k, 'v) t
(** When [obs] is given, the cache bumps [<name>/hits] on every
    {!find} hit, [<name>/misses] on every miss, and [<name>/evictions]
    per entry evicted by {!trim} ([name] defaults to ["cache"]) — the
    server wires both LRUs to its metrics registry this way.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val mem : ('k, 'v) t -> 'k -> bool

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or replace) with fresh recency.  The cache may temporarily
    exceed its capacity — call {!trim} to enforce it. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Drop an entry regardless of recency, returning its value so the
    caller can release it.  Not an eviction: no counter moves. *)

val trim : ?keep:('k -> bool) -> ('k, 'v) t -> ('k * 'v) list
(** Evict least-recently-used entries until [length <= capacity],
    skipping entries for which [keep] holds (default: keep nothing).
    Returns the evicted pairs, least recent first, so the caller can
    release their resources (e.g. retire a solver context).  If every
    over-capacity entry is kept, fewer (possibly zero) entries are
    evicted. *)

val items : ('k, 'v) t -> ('k * 'v) list
(** All entries, least recently used first. *)
