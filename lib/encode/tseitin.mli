(** Tseitin transformation: circuit consistency constraints in CNF.

    Every gate gets a variable; clauses force the variable to equal the
    gate function of its fanin variables.  Primary inputs stay free. *)

val gate_clauses :
  Emit.t -> out:Sat.Lit.t -> Netlist.Gate.kind -> Sat.Lit.t array -> unit
(** [gate_clauses e ~out kind fanins] emits clauses for [out = kind(fanins)].
    N-ary XOR/XNOR are decomposed with fresh helper variables.
    @raise Invalid_argument for [Input] or arity mismatch. *)

val encode : Emit.t -> Netlist.Circuit.t -> int array
(** Encode the whole circuit; returns the gate-id -> variable map. *)

(** How {!copy} encodes one logic gate. *)
type role =
  | Plain  (** [y = kind(fanins)] *)
  | Guarded of Sat.Lit.t
      (** every gate clause carries the literal, so [y = kind(fanins)]
          holds unless the literal is true — a select-guarded
          correction multiplexer *)
  | Free  (** no clauses: [y] is any value — a correction site *)

val copy :
  Emit.t -> Netlist.Circuit.t -> inputs:int array -> (int -> role) -> int array
(** [copy e c ~inputs role] encodes one copy of [c] whose primary inputs
    are the given variables (in circuit input order) and whose logic
    gates, in topological order, each get a fresh variable encoded as
    [role g] says.  Returns the gate-id -> variable map. *)
