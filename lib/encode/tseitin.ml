module Gate = Netlist.Gate
module Circuit = Netlist.Circuit
module Lit = Sat.Lit

(* o = AND(fanins): (¬o ∨ i_k) for each k, (o ∨ ¬i_1 ∨ .. ∨ ¬i_n).
   The [pol] flip turns the same skeleton into NAND (negate o),
   OR/NOR (negate the fanins by De Morgan). *)
let and_like (e : Emit.t) out ins =
  Array.iter (fun i -> e.Emit.clause [ Lit.negate out; i ]) ins;
  e.Emit.clause (out :: Array.to_list (Array.map Lit.negate ins))

let xor2 (e : Emit.t) out a b =
  e.Emit.clause [ Lit.negate out; a; b ];
  e.Emit.clause [ Lit.negate out; Lit.negate a; Lit.negate b ];
  e.Emit.clause [ out; Lit.negate a; b ];
  e.Emit.clause [ out; a; Lit.negate b ]

(* fold an n-ary xor chain into [out] *)
let xor_chain (e : Emit.t) out ins =
  match Array.length ins with
  | 1 ->
      e.Emit.clause [ Lit.negate out; ins.(0) ];
      e.Emit.clause [ out; Lit.negate ins.(0) ]
  | 2 -> xor2 e out ins.(0) ins.(1)
  | n ->
      let acc = ref ins.(0) in
      for i = 1 to n - 2 do
        let t = Lit.pos (e.Emit.fresh ()) in
        xor2 e t !acc ins.(i);
        acc := t
      done;
      xor2 e out !acc ins.(n - 1)

let gate_clauses (e : Emit.t) ~out kind fanins =
  if not (Gate.arity_ok kind (Array.length fanins)) then
    invalid_arg "Tseitin.gate_clauses: bad arity";
  match kind with
  | Gate.Input -> invalid_arg "Tseitin.gate_clauses: Input"
  | Gate.Const0 -> e.Emit.clause [ Lit.negate out ]
  | Gate.Const1 -> e.Emit.clause [ out ]
  | Gate.Buf ->
      e.Emit.clause [ Lit.negate out; fanins.(0) ];
      e.Emit.clause [ out; Lit.negate fanins.(0) ]
  | Gate.Not ->
      e.Emit.clause [ Lit.negate out; Lit.negate fanins.(0) ];
      e.Emit.clause [ out; fanins.(0) ]
  | Gate.And -> and_like e out fanins
  | Gate.Nand -> and_like e (Lit.negate out) fanins
  | Gate.Or -> and_like e (Lit.negate out) (Array.map Lit.negate fanins)
  | Gate.Nor -> and_like e out (Array.map Lit.negate fanins)
  | Gate.Xor -> xor_chain e out fanins
  | Gate.Xnor -> xor_chain e (Lit.negate out) fanins

let encode (e : Emit.t) (c : Circuit.t) =
  let vars = Array.init (Circuit.size c) (fun _ -> e.Emit.fresh ()) in
  Array.iter
    (fun g ->
      match c.Circuit.kinds.(g) with
      | Gate.Input -> ()
      | k ->
          gate_clauses e ~out:(Lit.pos vars.(g)) k
            (Array.map (fun h -> Lit.pos vars.(h)) c.Circuit.fanins.(g)))
    c.Circuit.topo;
  vars

type role = Plain | Guarded of Lit.t | Free

let copy (e : Emit.t) (c : Circuit.t) ~inputs role =
  let y = Array.make (Circuit.size c) (-1) in
  Array.iteri (fun i g -> y.(g) <- inputs.(i)) c.Circuit.inputs;
  Array.iter
    (fun g ->
      match c.Circuit.kinds.(g) with
      | Gate.Input -> ()
      | kind -> (
          let v = e.Emit.fresh () in
          y.(g) <- v;
          let clauses e =
            gate_clauses e ~out:(Lit.pos v) kind
              (Array.map (fun h -> Lit.pos y.(h)) c.Circuit.fanins.(g))
          in
          match role g with
          | Plain -> clauses e
          | Guarded s ->
              clauses
                { e with Emit.clause = (fun cl -> e.Emit.clause (s :: cl)) }
          | Free -> ()))
    c.Circuit.topo;
  y
