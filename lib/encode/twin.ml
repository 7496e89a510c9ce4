module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Lit = Sat.Lit

type answer = Vector of bool array | Inseparable | Unknown

type t = {
  solver : Sat.Solver.t;
  emit : Emit.t;
  inputs : int array;  (* shared input vars, circuit input order *)
  mutable vectors : int;
  cert : Certifier.t option;
}

(* One corrected copy over the shared input variables: gates in [sites]
   get a free output variable (any value is achievable at a correction
   site once its select is on — the gate function is irrelevant), every
   other gate its Tseitin function.  Returns the per-gate value vars. *)
let encode_copy e circ shared sites =
  let n = Circuit.size circ in
  let y = Array.make n (-1) in
  Array.iteri (fun i g -> y.(g) <- shared.(i)) circ.Circuit.inputs;
  Array.iter
    (fun g ->
      match circ.Circuit.kinds.(g) with
      | Gate.Input -> ()
      | kind ->
          let v = e.Emit.fresh () in
          y.(g) <- v;
          if not (Hashtbl.mem sites g) then
            let fanin_lits =
              Array.map (fun h -> Lit.pos y.(h)) circ.Circuit.fanins.(g)
            in
            Tseitin.gate_clauses e ~out:(Lit.pos v) kind fanin_lits)
    circ.Circuit.topo;
  y

let site_table circ name gates =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun g ->
      if Circuit.is_input circ g then
        invalid_arg
          (Printf.sprintf "Twin.build: primary input in candidate %s" name);
      Hashtbl.replace tbl g ())
    gates;
  tbl

let certified_emit certify solver =
  let cert = Certifier.attach ~certify solver in
  (cert, Certifier.tee cert (Emit.of_solver solver))

let check_reference_shape name circ golden =
  Option.iter
    (fun g ->
      if
        Array.length g.Circuit.inputs <> Array.length circ.Circuit.inputs
        || Array.length g.Circuit.outputs <> Array.length circ.Circuit.outputs
      then invalid_arg (name ^ ": golden reference shape mismatch"))
    golden

(* fresh XOR-difference vars over two output rows + the "some output
   differs" disjunction *)
let assert_some_output_differs e ya outs_a yb outs_b =
  let diffs =
    Array.init (Array.length outs_a) (fun i ->
        let d = Lit.pos (e.Emit.fresh ()) in
        Tseitin.gate_clauses e ~out:d Gate.Xor
          [| Lit.pos ya.(outs_a.(i)); Lit.pos yb.(outs_b.(i)) |];
        d)
  in
  e.Emit.clause (Array.to_list diffs)

let build ?(certify = false) ?golden solver circ ~a ~b =
  check_reference_shape "Twin.build" circ golden;
  let cert, e = certified_emit certify solver in
  let shared =
    Array.map (fun _ -> e.Emit.fresh ()) circ.Circuit.inputs
  in
  let ya = encode_copy e circ shared (site_table circ "a" a) in
  let yb = encode_copy e circ shared (site_table circ "b" b) in
  (* some output must differ between the two corrected copies *)
  assert_some_output_differs e ya circ.Circuit.outputs yb
    circ.Circuit.outputs;
  (* with a golden reference: the vector must also be a failing test on
     the uncorrected implementation (some output differs from golden's).
     Passing tests can never invalidate a candidate — a freed gate can
     always reproduce its own value — so restricting the search to
     failing vectors loses no distinguishing power and upgrades [Unsat]
     to full observational indistinguishability (see the .mli). *)
  (match golden with
  | None -> ()
  | Some g ->
      let yf = encode_copy e circ shared (Hashtbl.create 1) in
      let yg = encode_copy e g shared (Hashtbl.create 1) in
      assert_some_output_differs e yf circ.Circuit.outputs yg
        g.Circuit.outputs);
  { solver; emit = e; inputs = shared; vectors = 0; cert }

let build_directed ?(certify = false) ~golden solver circ ~survivor ~victim =
  check_reference_shape "Twin.build_directed" circ (Some golden);
  let victim = List.sort_uniq compare victim in
  if List.length victim > 10 then
    invalid_arg "Twin.build_directed: victim candidate too large";
  let cert, e = certified_emit certify solver in
  let shared = Array.map (fun _ -> e.Emit.fresh ()) circ.Circuit.inputs in
  let yg = encode_copy e golden shared (Hashtbl.create 1) in
  let yf = encode_copy e circ shared (Hashtbl.create 1) in
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
  let ys = encode_copy e circ shared (site_table circ "survivor" survivor) in
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
  let sites = site_table circ "victim" victim in
  let varr = Array.of_list victim in
  let m = Array.length varr in
  for assignment = 0 to (1 lsl m) - 1 do
    let yv = encode_copy e circ shared sites in
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
  { solver; emit = e; inputs = shared; vectors = 0; cert }

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

let next_vector ?budget t =
  let result =
    match budget with
    | Some budget -> Sat.Solver.solve_limited ~budget t.solver
    | None -> Sat.Solver.Solved (Sat.Solver.solve t.solver)
  in
  Certifier.verdict t.cert t.solver ~assumptions:[] result;
  match result with
  | Sat.Solver.Unknown -> Unknown
  | Sat.Solver.Solved Sat.Solver.Unsat -> Inseparable
  | Sat.Solver.Solved Sat.Solver.Sat ->
      let vector =
        Array.map (fun v -> Sat.Solver.value t.solver v) t.inputs
      in
      block_vector t vector;
      t.vectors <- t.vectors + 1;
      Vector vector

let num_vectors t = t.vectors
let cert_checks t = Certifier.checks t.cert
let cert_failures t = Certifier.failures t.cert
