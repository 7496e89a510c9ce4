module Circuit = Netlist.Circuit
module Lit = Sat.Lit

type t = {
  solver : Sat.Solver.t;
  emit : Emit.t;
  circ : Circuit.t;
  groups : int array array;          (* group index -> member gate ids *)
  group_of : (int, int) Hashtbl.t;   (* gate id -> group index *)
  selects : int array;               (* group index -> select var *)
  counter : Cardinality.t;
  mutable copies : int array array;  (* test index -> gate id -> y var *)
  cert : Certifier.t option;
}

(* one circuit copy constrained by one test; a candidate's gate clauses
   carry its select literal, so [y = kind(fanins)] unless the gate is
   selected, and a selected gate's [y] is the free correction value *)
let encode_copy e circ group_of selects (test : Sim.Testgen.test) =
  let inputs =
    Array.map
      (fun b ->
        let v = e.Emit.fresh () in
        e.Emit.clause [ Lit.make v b ];
        v)
      test.Sim.Testgen.vector
  in
  let y =
    Tseitin.copy e circ ~inputs (fun g ->
        match Hashtbl.find_opt group_of g with
        | None -> Tseitin.Plain
        | Some gi -> Tseitin.Guarded (Lit.pos selects.(gi)))
  in
  let og = circ.Circuit.outputs.(test.Sim.Testgen.po_index) in
  e.Emit.clause [ Lit.make y.(og) test.Sim.Testgen.expected ];
  y

let build ?mirror ?candidates ?(groups = []) ?(certify = false) ~max_k
    solver circ tests =
  let cert = Certifier.attach ~certify solver in
  let e =
    match mirror with
    | None -> Emit.of_solver solver
    | Some cnf -> Emit.tee (Emit.of_solver solver) cnf
  in
  let e = Certifier.tee cert e in
  let groups =
    let explicit =
      List.map (fun g -> Array.of_list (List.sort_uniq Int.compare g)) groups
    in
    let singles =
      match (candidates, explicit) with
      | Some gs, _ -> List.map (fun g -> [| g |]) (List.sort_uniq Int.compare gs)
      | None, [] ->
          Array.to_list (Array.map (fun g -> [| g |]) (Circuit.gate_ids circ))
      | None, _ :: _ -> []
    in
    Array.of_list (explicit @ singles)
  in
  let group_of = Hashtbl.create 64 in
  Array.iteri
    (fun i members ->
      Array.iter
        (fun g ->
          if Circuit.is_input circ g then
            invalid_arg "Muxed.build: primary inputs cannot be candidates";
          if Hashtbl.mem group_of g then
            invalid_arg "Muxed.build: gate in two groups";
          Hashtbl.add group_of g i)
        members)
    groups;
  let selects = Array.map (fun _ -> e.Emit.fresh ()) groups in
  let copies =
    Array.map (encode_copy e circ group_of selects) (Array.of_list tests)
  in
  let counter =
    Cardinality.encode_at_most e
      ~lits:(Array.to_list (Array.map Lit.pos selects))
      ~max_bound:(min max_k (Array.length selects))
  in
  { solver; emit = e; circ; groups; group_of; selects; counter; copies; cert }

let cert_checks t = Certifier.checks t.cert
let cert_failures t = Certifier.failures t.cert

let add_test t test =
  let y = encode_copy t.emit t.circ t.group_of t.selects test in
  t.copies <- Array.append t.copies [| y |]

let circuit t = t.circ

let candidate_gates t =
  Array.concat (Array.to_list t.groups)
  |> Array.to_list |> List.sort_uniq Int.compare |> Array.of_list

let select_lit t g =
  match Hashtbl.find_opt t.group_of g with
  | Some i -> Lit.pos t.selects.(i)
  | None -> raise Not_found

let num_groups t = Array.length t.selects

let solve_at_most ?(extra = []) ?(budget = Sat.Budget.unlimited ()) t k =
  let bound = Cardinality.bound_assumption t.counter (min k (num_groups t)) in
  let assumptions = bound @ extra in
  let r = Sat.Solver.solve_limited ~assumptions ~budget t.solver in
  Certifier.verdict t.cert t.solver ~assumptions r;
  r

let solution t =
  List.init (num_groups t) Fun.id
  |> List.filter (fun i -> Sat.Solver.value t.solver t.selects.(i))
  |> List.map (fun i -> Array.fold_left min max_int t.groups.(i))
  |> List.sort Int.compare

let correction_var t ~test ~gate =
  if not (Hashtbl.mem t.group_of gate) then raise Not_found;
  t.copies.(test).(gate)

let correction_value t ~test ~gate =
  Sat.Solver.value t.solver (correction_var t ~test ~gate)

let block ?unless t gates =
  let group_index g =
    match Hashtbl.find_opt t.group_of g with
    | Some i -> i
    | None -> invalid_arg "Muxed.block: non-candidate gate in solution"
  in
  let group_indices = List.map group_index gates |> List.sort_uniq Int.compare in
  let clause =
    List.map (fun i -> Lit.negate (Lit.pos t.selects.(i))) group_indices
  in
  let clause =
    match unless with None -> clause | Some a -> Lit.negate a :: clause
  in
  (* through the emit hook, not the raw solver: the certification
     checker (and any mirror) must see blocking clauses too *)
  t.emit.Emit.clause clause

let rule_out_single t g =
  match Hashtbl.find_opt t.group_of g with
  | None -> invalid_arg "Muxed.rule_out_single: non-candidate gate"
  | Some i ->
      let bound =
        Cardinality.bound_assumption t.counter (min 1 (num_groups t))
      in
      t.emit.Emit.clause
        (Lit.negate (Lit.pos t.selects.(i)) :: List.map Lit.negate bound)

let assert_clause t lits = t.emit.Emit.clause lits
let fresh_activation t = Lit.pos (t.emit.Emit.fresh ())

let gate_value t ~test ~gate = Sat.Solver.value t.solver t.copies.(test).(gate)

let export_dimacs ?candidates ?groups ~k circ tests =
  let cnf = Sat.Cnf.create () in
  let solver = Sat.Solver.create () in
  let t =
    build ~mirror:cnf ?candidates ?groups ~max_k:k solver circ tests
  in
  (* freeze the bound: the assumption literals become unit clauses *)
  List.iter
    (fun l -> Sat.Cnf.add_clause cnf [ l ])
    (Cardinality.bound_assumption t.counter (min k (num_groups t)));
  Sat.Cnf.to_dimacs cnf
