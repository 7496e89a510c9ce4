module Sequential = Sim.Sequential
module Circuit = Netlist.Circuit

type result = { outcome : Outcome.t; frames : int }

let frames_of_tests tests =
  match tests with
  | [] -> invalid_arg "Seq_diag: empty test list"
  | t :: rest ->
      let frames = Array.length t.Sim.Seq_testgen.sequence in
      List.iter
        (fun t' ->
          if Array.length t'.Sim.Seq_testgen.sequence <> frames then
            invalid_arg "Seq_diag: tests with different sequence lengths")
        (t :: rest);
      frames

(* a sequential test as a combinational triple of the unrolled machine *)
let to_comb_test s (u : Sequential.unrolled) (t : Sim.Seq_testgen.test) =
  let ni = Sequential.num_inputs s in
  let vector = Array.make (u.Sequential.frames * ni) false in
  Array.iteri
    (fun f row ->
      Array.iteri
        (fun pi v -> vector.(u.Sequential.input_of ~frame:f ~pi) <- v)
        row)
    t.Sim.Seq_testgen.sequence;
  {
    Sim.Testgen.vector;
    po_index =
      u.Sequential.output_of ~frame:t.Sim.Seq_testgen.cycle
        ~po:t.Sim.Seq_testgen.po_index;
    expected = t.Sim.Seq_testgen.expected;
  }

(* all-frame copies of every core logic gate *)
let core_groups s (u : Sequential.unrolled) =
  Circuit.gate_ids s.Sequential.comb
  |> Array.to_list
  |> List.map (fun g ->
         List.init u.Sequential.frames (fun f -> u.Sequential.gate_of ~frame:f g))

let diagnose_bsat ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ~k s tests =
  let t0 = Obs.Clock.wall () in
  let frames = frames_of_tests tests in
  let u = Sequential.unroll s ~frames in
  let comb_tests = List.map (to_comb_test s u) tests in
  let solver = Sat.Solver.create () in
  let inst =
    Encode.Muxed.build ~groups:(core_groups s u) ~max_k:k solver
      u.Sequential.circuit comb_tests
  in
  let cnf_time = Obs.Clock.wall () -. t0 in
  let start = Obs.Clock.wall () in
  (* group representatives are the frame-0 copies = core ids *)
  let r =
    Enumerate.levels ~found:(ref 0) ~max_solutions ~budget ~k
      (Enumerate.muxed inst)
  in
  let outcome =
    {
      Outcome.solutions = r.Enumerate.found;
      truncated = r.Enumerate.truncated;
      solver_calls = r.Enumerate.calls;
      stats = Sat.Solver.stats solver;
      cert_checks = 0;
      cert_failures = [];
      cnf_time;
      one_time =
        (if r.Enumerate.found = [] then 0.0 else r.Enumerate.first_at -. start);
      all_time = Obs.Clock.wall () -. start;
    }
  in
  { outcome; frames }

(* Frame f>0 copies of state bits are Buf gates the tracer may mark; they
   fold back to core pseudo-inputs, which are not correction sites. *)
let fold_to_core s unrolled_gates =
  let n = Circuit.size s.Sequential.comb in
  unrolled_gates
  |> List.map (fun g -> g mod n)
  |> List.filter (fun g -> not (Circuit.is_input s.Sequential.comb g))
  |> List.sort_uniq Int.compare

let bsim s tests =
  let frames = frames_of_tests tests in
  let u = Sequential.unroll s ~frames in
  let comb_tests = List.map (to_comb_test s u) tests in
  let r = Bsim.diagnose u.Sequential.circuit comb_tests in
  Array.map (fold_to_core s) r.Bsim.candidate_sets

let diagnose_cov ?max_solutions ?budget ~k s tests =
  let sets = bsim s tests in
  fst (Cover.enumerate ?max_solutions ?budget ~k sets)

let check s tests core_gates =
  match tests with
  | [] -> true
  | _ -> (
      match core_gates with
      | [] -> List.for_all (fun t -> not (Sim.Seq_testgen.fails s t)) tests
      | _ ->
          let frames = frames_of_tests tests in
          let u = Sequential.unroll s ~frames in
          let comb_tests = List.map (to_comb_test s u) tests in
          let groups =
            List.map
              (fun g ->
                List.init frames (fun f -> u.Sequential.gate_of ~frame:f g))
              core_gates
          in
          let solver = Sat.Solver.create () in
          let inst =
            Encode.Muxed.build ~groups ~max_k:(List.length core_gates) solver
              u.Sequential.circuit comb_tests
          in
          let extra = List.map (Encode.Muxed.select_lit inst) core_gates in
          Encode.Muxed.solve_at_most ~extra inst (List.length core_gates)
          = Sat.Solver.Solved Sat.Solver.Sat)
