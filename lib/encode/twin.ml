module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Lit = Sat.Lit

type answer = Vector of bool array | Inseparable | Unknown

type t = {
  solver : Sat.Solver.t;
  emit : Emit.t;
  inputs : int array;  (* shared input vars, circuit input order *)
  cert : Certifier.t option;
}

(* The per-gate roles of a corrected copy: the gates of a candidate are
   free (any value is achievable at a correction site once its select is
   on — the gate function is irrelevant), every other gate gets its
   Tseitin function. *)
let corrected circ name gates =
  let sites = Hashtbl.create 8 in
  List.iter
    (fun g ->
      if Circuit.is_input circ g then
        invalid_arg
          (Printf.sprintf "Twin.build_directed: primary input in %s" name);
      Hashtbl.replace sites g ())
    gates;
  fun g -> if Hashtbl.mem sites g then Tseitin.Free else Tseitin.Plain

let uncorrected _ = Tseitin.Plain

let build_directed ?(certify = false) ~golden solver circ ~survivor ~victim =
  if
    Array.length golden.Circuit.inputs <> Array.length circ.Circuit.inputs
    || Array.length golden.Circuit.outputs <> Array.length circ.Circuit.outputs
  then invalid_arg "Twin.build_directed: golden reference shape mismatch";
  let victim = List.sort_uniq compare victim in
  if List.length victim > 10 then
    invalid_arg "Twin.build_directed: victim candidate too large";
  let cert = Certifier.attach ~certify solver in
  let e = Certifier.tee cert (Emit.of_solver solver) in
  let shared = Array.map (fun _ -> e.Emit.fresh ()) circ.Circuit.inputs in
  let yg = Tseitin.copy e golden ~inputs:shared uncorrected in
  let yf = Tseitin.copy e circ ~inputs:shared uncorrected in
  let num_outputs = Array.length circ.Circuit.outputs in
  (* per-output failing flag of the uncorrected implementation:
     f_o <-> impl and golden disagree on output o.  Validity only
     constrains failing outputs, so every correctness condition below
     is guarded by f_o — this keeps the instance in exact agreement
     with [Validity.check_sat] over the vector's failing triples. *)
  let failing =
    Array.init num_outputs (fun i ->
        let f = e.Emit.fresh () in
        Tseitin.gate_clauses e ~out:(Lit.pos f) Gate.Xor
          [|
            Lit.pos yf.(circ.Circuit.outputs.(i));
            Lit.pos yg.(golden.Circuit.outputs.(i));
          |];
        f)
  in
  (* survivor side: free correction sites must reproduce golden on every
     failing output (f_o -> ys_o = yg_o) *)
  let ys =
    Tseitin.copy e circ ~inputs:shared (corrected circ "survivor" survivor)
  in
  Array.iteri
    (fun i g ->
      let f = failing.(i)
      and u = ys.(g)
      and w = yg.(golden.Circuit.outputs.(i)) in
      e.Emit.clause [ Lit.neg_of f; Lit.neg_of u; Lit.pos w ];
      e.Emit.clause [ Lit.neg_of f; Lit.pos u; Lit.neg_of w ])
    circ.Circuit.outputs;
  (* victim side: one copy per correction-value assignment, each pinned
     and asserted to miss golden on some failing output — together, no
     correction of the victim explains the vector's failing triples *)
  let victim_roles = corrected circ "victim" victim in
  let varr = Array.of_list victim in
  let m = Array.length varr in
  for assignment = 0 to (1 lsl m) - 1 do
    let yv = Tseitin.copy e circ ~inputs:shared victim_roles in
    Array.iteri
      (fun bit g ->
        e.Emit.clause [ Lit.make yv.(g) (assignment land (1 lsl bit) <> 0) ])
      varr;
    let misses =
      Array.init num_outputs (fun i ->
          let d = e.Emit.fresh () in
          Tseitin.gate_clauses e ~out:(Lit.pos d) Gate.Xor
            [|
              Lit.pos yv.(circ.Circuit.outputs.(i));
              Lit.pos yg.(golden.Circuit.outputs.(i));
            |];
          let kill = Lit.pos (e.Emit.fresh ()) in
          Tseitin.gate_clauses e ~out:kill Gate.And
            [| Lit.pos failing.(i); Lit.pos d |];
          kill)
    in
    e.Emit.clause (Array.to_list misses)
  done;
  { solver; emit = e; inputs = shared; cert }

(* blocking goes through the emit hook so a certification checker sees
   the clause too *)
let block_vector t vector =
  t.emit.Emit.clause
    (Array.to_list
       (Array.mapi (fun i v -> Lit.make v (not vector.(i))) t.inputs))

let block t vector =
  if Array.length vector <> Array.length t.inputs then
    invalid_arg "Twin.block: vector arity mismatch";
  block_vector t vector

let next_vector ?(budget = Sat.Budget.unlimited ()) t =
  let result = Sat.Solver.solve_limited ~budget t.solver in
  Certifier.verdict t.cert t.solver ~assumptions:[] result;
  match result with
  | Sat.Solver.Unknown -> Unknown
  | Sat.Solver.Solved Sat.Solver.Unsat -> Inseparable
  | Sat.Solver.Solved Sat.Solver.Sat ->
      let vector =
        Array.map (fun v -> Sat.Solver.value t.solver v) t.inputs
      in
      block_vector t vector;
      Vector vector

let cert_checks t = Certifier.checks t.cert
let cert_failures t = Certifier.failures t.cert
