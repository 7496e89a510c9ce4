(* Sequential diagnosis on the ISCAS89 s27 machine.

     dune exec examples/seq_debug.exe

   A gate-change error is injected into the combinational core of a
   sequential circuit.  Failing input *sequences* (from reset) are
   collected; the machine is unrolled over the sequence length with all
   time-frame copies of each core gate sharing one correction select, and
   BSAT enumerates the valid sequential corrections (Ali et al.'s model,
   referenced in §2.3 of the paper). *)

let () =
  let golden =
    Core.Sequential.of_parsed
      (Core.Bench_format.parse_string ~name:"s27"
         Bench_suite.Embedded.s27_text)
  in
  Fmt.pr "machine: s27 — %d PIs, %d POs, %d flip-flops@."
    (Core.Sequential.num_inputs golden)
    (Core.Sequential.num_outputs golden)
    (Core.Sequential.num_state golden);

  (* break one gate of the core; try seeds until the error is detectable
     within 5 cycles from reset *)
  let rec pick seed =
    let faulty_comb, errors =
      Core.Injector.inject ~seed ~num_errors:1 golden.Core.Sequential.comb
    in
    let faulty = Core.Sequential.with_comb golden faulty_comb in
    let tests =
      Core.Seq_testgen.generate ~seed:(seed + 1) ~length:5
        ~max_sequences:5000 ~wanted:8 ~golden ~faulty
    in
    if tests <> [] || seed > 40 then (faulty, errors, tests)
    else pick (seed + 1)
  in
  let faulty, errors, tests = pick 6 in
  List.iter
    (fun e ->
      Fmt.pr "injected: %a@." (Core.Fault.pp golden.Core.Sequential.comb) e)
    errors;
  Fmt.pr "%d failing sequences of 5 cycles@." (List.length tests);
  (match tests with
  | t :: _ -> Fmt.pr "e.g. %a@." Core.Seq_testgen.pp t
  | [] -> ());

  if tests <> [] then begin
    let name g = golden.Core.Sequential.comb.Core.Circuit.names.(g) in
    let pp_sol ppf s =
      Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
        (List.map name s)
    in

    (* sequential BSIM: path tracing on the unrolled machine *)
    let sets = Core.Seq_diag.bsim faulty tests in
    let union =
      Array.to_list sets |> List.concat |> List.sort_uniq Int.compare
    in
    Fmt.pr "@.sequential BSIM marks %d core gates: %a@." (List.length union)
      pp_sol union;

    (* sequential COV *)
    let covers = Core.Seq_diag.diagnose_cov ~k:1 faulty tests in
    Fmt.pr "sequential COV: %a@." (Fmt.list ~sep:(Fmt.any " ") pp_sol) covers;

    (* sequential BSAT: guaranteed valid sequential corrections *)
    let r = Core.Seq_diag.diagnose_bsat ~k:1 faulty tests in
    Fmt.pr "sequential BSAT (unrolled over %d frames): %a@."
      r.Core.Seq_diag.frames
      (Fmt.list ~sep:(Fmt.any " ") pp_sol)
      r.Core.Seq_diag.outcome.solutions;
    List.iter
      (fun sol ->
        assert (Core.Seq_diag.check faulty tests sol))
      r.Core.Seq_diag.outcome.solutions;
    Fmt.pr "(all verified as valid sequential corrections)@.";
    Fmt.pr "actual error site: {%s}@."
      (name (List.hd (Core.Fault.sites errors)))
  end
