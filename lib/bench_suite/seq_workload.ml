module Seq = Sim.Sequential

let synthetic_machine ~seed ~inputs ~gates ~outputs ~state =
  if state >= inputs || state >= outputs then
    invalid_arg "Seq_workload.synthetic_machine: too much state";
  let comb =
    Netlist.Generators.random_dag ~name:(Printf.sprintf "seq_s%d" seed) ~seed
      ~num_inputs:inputs ~num_gates:gates ~num_outputs:outputs ()
  in
  (* pair the last [state] inputs with the last [state] outputs *)
  let ni = Netlist.Circuit.num_inputs comb in
  let no = Netlist.Circuit.num_outputs comb in
  let name g = comb.Netlist.Circuit.names.(g) in
  let dff_pairs =
    List.init state (fun j ->
        ( name comb.Netlist.Circuit.inputs.(ni - 1 - j),
          name comb.Netlist.Circuit.outputs.(no - 1 - j) ))
  in
  Seq.of_circuit comb ~dff_pairs

type row = {
  label : string;
  frames : int;
  m : int;
  bsim_union : int;
  cov_count : int;
  bsat_count : int;
  bsat_time : float;
  site_hit : bool;
}

let run ~label ~seed ~frames ~wanted s =
  let faulty_comb, errors =
    Sim.Injector.inject ~seed ~num_errors:1 s.Seq.comb
  in
  let faulty = Seq.with_comb s faulty_comb in
  let tests =
    Sim.Seq_testgen.generate ~seed:(seed + 1) ~length:frames
      ~max_sequences:4000 ~wanted ~golden:s ~faulty
  in
  match tests with
  | [] -> None
  | _ ->
      let site = List.hd (Sim.Fault.sites errors) in
      let sets = Diagnosis.Seq_diag.bsim faulty tests in
      let union =
        Array.to_list sets |> List.concat |> List.sort_uniq Int.compare
      in
      let covers = Diagnosis.Seq_diag.diagnose_cov ~k:1 faulty tests in
      let t0 = Obs.Clock.wall () in
      let bsat = Diagnosis.Seq_diag.diagnose_bsat ~k:1 faulty tests in
      let sols = bsat.Diagnosis.Seq_diag.outcome.solutions in
      Some
        {
          label;
          frames;
          m = List.length tests;
          bsim_union = List.length union;
          cov_count = List.length covers;
          bsat_count = List.length sols;
          bsat_time = Obs.Clock.wall () -. t0;
          site_hit = List.exists (List.mem site) sols;
        }
