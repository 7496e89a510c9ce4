(** Structural analyses on circuits: cones, reachability, distances. *)

val fanin_cone : Circuit.t -> int list -> bool array
(** [fanin_cone c roots] marks every gate in the transitive fanin of
    [roots] (roots included). *)

val fanout_cone : Circuit.t -> int list -> bool array
(** Transitive fanout, roots included. *)

val distance_from : Circuit.t -> int list -> int array
(** Multi-source BFS over the *undirected* gate graph.  [d.(g)] is the
    number of edges on a shortest connection-graph path from [g] to the
    nearest source, [max_int] if unreachable.  This is the
    "distance to the nearest error" measure of the paper's Table 3. *)
