(* Post-verification debugging scenario (the paper's motivating use case).

     dune exec examples/alu_debug.exe

   An ALU implementation fails equivalence checking against its golden
   specification.  The counterexamples from the checker become the test
   set (t, o, v); diagnosis localizes the bug.  We also show how the
   BSAT witness values suggest the *replacement function* for the broken
   gate (§4: "this can be exploited to determine the correct function of
   the gate"). *)

let () =
  let golden = Core.Generators.alu 4 in
  let faulty, errors = Core.Injector.inject ~seed:7 ~num_errors:1 golden in
  Fmt.pr "specification : %a@." Core.Circuit.pp_stats golden;
  List.iter
    (fun e -> Fmt.pr "actual bug    : %a@." (Core.Fault.pp golden) e)
    errors;

  (* "equivalence checking": exhaustive comparison (12 inputs) produces
     counterexamples; we keep a handful as the test set *)
  let counterexamples = Core.Testgen.exhaustive ~golden ~faulty in
  Fmt.pr "equivalence check: %d failing (vector, output) pairs@."
    (List.length counterexamples);
  let tests = List.filteri (fun i _ -> i < 12) counterexamples in

  let name g = faulty.Core.Circuit.names.(g) in
  let pp_sol ppf s =
    Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
      (List.map name s)
  in

  (* diagnose with the SAT-based engine *)
  let solver = Core.Solver.create () in
  let inst = Core.Muxed.build ~max_k:1 solver faulty tests in
  (match Core.Muxed.solve_at_most inst 1 with
  | Core.Solver.Solved Core.Solver.Unsat ->
      Fmt.pr "no single-gate correction exists@."
  | Core.Solver.Unknown -> assert false (* no budget was given *)
  | Core.Solver.Solved Core.Solver.Sat ->
      let sol = Core.Muxed.solution inst in
      Fmt.pr "BSAT correction: %a@." pp_sol sol;
      (* read off the correction witness: for each test, the value the
         repaired gate must produce *)
      let g = List.hd sol in
      Fmt.pr "witness values at %s (per test):@." (name g);
      List.iteri
        (fun ti t ->
          let v = Core.Muxed.correction_value inst ~test:ti ~gate:g in
          let fanin_vals =
            Array.map
              (fun h -> Core.Muxed.gate_value inst ~test:ti ~gate:h)
              faulty.Core.Circuit.fanins.(g)
          in
          Fmt.pr "  test %2d: inputs=%a  required output=%b@." ti
            (Fmt.array ~sep:(Fmt.any ",") Fmt.bool)
            fanin_vals v;
          ignore t)
        tests;
      (* match the witness against standard gate functions *)
      let arity = Array.length faulty.Core.Circuit.fanins.(g) in
      let consistent kind =
        Core.Gate.arity_ok kind arity
        && List.for_all
             (fun ti ->
               let fanin_vals =
                 Array.map
                   (fun h -> Core.Muxed.gate_value inst ~test:ti ~gate:h)
                   faulty.Core.Circuit.fanins.(g)
               in
               Core.Gate.eval kind fanin_vals
               = Core.Muxed.correction_value inst ~test:ti ~gate:g)
             (List.init (List.length tests) Fun.id)
      in
      let candidates = List.filter consistent Core.Gate.all_logic in
      Fmt.pr "gate functions consistent with the witness: %a@."
        (Fmt.list ~sep:(Fmt.any ", ") Core.Gate.pp)
        candidates;
      let real = List.hd errors in
      Fmt.pr "(the real original function was %a)@." Core.Gate.pp
        real.Core.Fault.original)
