module Circuit = Netlist.Circuit

let check_sat c tests cands =
  match cands with
  | [] -> List.for_all (fun t -> not (Sim.Testgen.fails c t)) tests
  | _ ->
      let solver = Sat.Solver.create () in
      let inst =
        Encode.Muxed.build ~candidates:cands ~max_k:(List.length cands) solver
          c tests
      in
      let extra = List.map (Encode.Muxed.select_lit inst) cands in
      Encode.Muxed.solve_at_most ~extra inst (List.length cands)
      = Sat.Solver.Solved Sat.Solver.Sat

(* A test is rectifiable by C iff some assignment of values to the gates
   of C makes the erroneous output correct (inputs fixed by the test). *)
let test_rectifiable ?ctx c (test : Sim.Testgen.test) cands =
  let base = Sim.Simulator.eval c test.Sim.Testgen.vector in
  let cands = Array.of_list cands in
  let n = Array.length cands in
  let rec try_combo combo =
    if combo >= 1 lsl n then false
    else
      let forced =
        Array.to_list
          (Array.mapi (fun i g -> (g, (combo lsr i) land 1 = 1)) cands)
      in
      Sim.Event_sim.output_after ?ctx c base forced test.Sim.Testgen.po_index
      = test.Sim.Testgen.expected
      || try_combo (combo + 1)
  in
  try_combo 0

let check_sim ?(max_set = 16) c tests cands =
  if List.length cands > max_set then
    invalid_arg "Validity.check_sim: candidate set too large";
  let ctx = Sim.Sim_ctx.create c in
  List.for_all (fun t -> test_rectifiable ~ctx c t cands) tests

(* Lemma 1 at level 1: on a failing test a single gate's only other
   value is its flip, so g is valid iff flipping g fixes every failing
   test; each test narrows the survivors of the one before *)
let singles c tests =
  let ctx = Sim.Sim_ctx.create c in
  let narrow cands (test : Sim.Testgen.test) =
    if cands = [] then []
    else
      let base = Sim.Simulator.eval c test.Sim.Testgen.vector in
      let po = test.Sim.Testgen.po_index and v = test.Sim.Testgen.expected in
      if base.(c.Circuit.outputs.(po)) = v then cands
      else
        List.filter
          (fun g ->
            Sim.Event_sim.output_after ~ctx c base [ (g, not base.(g)) ] po = v)
          cands
  in
  List.fold_left narrow
    (List.sort Int.compare (Array.to_list (Circuit.gate_ids c)))
    tests

let essential ~check cands =
  List.for_all (fun g -> not (check (List.filter (( <> ) g) cands))) cands
