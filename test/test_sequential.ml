(* Tests for the sequential layer: time-frame expansion, sequential
   simulation, sequential test generation and sequential diagnosis. *)

module C = Netlist.Circuit
module Seq = Sim.Sequential

let s27 () =
  Seq.of_parsed
    (Netlist.Bench_format.parse_string ~name:"s27"
       Bench_suite.Embedded.s27_text)

(* a tiny hand-made machine: 2-bit counter with enable, output = carry
   q0' = q0 xor en ; q1' = q1 xor (q0 and en) ; out = q0 and q1 and en *)
let counter2 () =
  let b = Netlist.Builder.create ~name:"cnt2" in
  let en = Netlist.Builder.input ~name:"en" b in
  let q0 = Netlist.Builder.input ~name:"q0" b in
  let q1 = Netlist.Builder.input ~name:"q1" b in
  let d0 = Netlist.Builder.xor_ ~name:"d0" b q0 en in
  let c01 = Netlist.Builder.and_ ~name:"c01" b q0 en in
  let d1 = Netlist.Builder.xor_ ~name:"d1" b q1 c01 in
  let out = Netlist.Builder.and_ ~name:"out" b c01 q1 in
  Netlist.Builder.output b out;
  Netlist.Builder.output b d0;
  Netlist.Builder.output b d1;
  let comb = Netlist.Builder.build b in
  Seq.of_circuit comb ~dff_pairs:[ ("q0", "d0"); ("q1", "d1") ]

let test_of_parsed_s27 () =
  let s = s27 () in
  Alcotest.(check int) "PIs" 4 (Seq.num_inputs s);
  Alcotest.(check int) "POs" 1 (Seq.num_outputs s);
  Alcotest.(check int) "state bits" 3 (Seq.num_state s)

let test_counter_counts () =
  let s = counter2 () in
  (* enable for 4 cycles: carry out pulses at the 4th (11 -> 00) *)
  let always_on = List.init 6 (fun _ -> [| true |]) in
  let outs = Seq.simulate s always_on in
  let carries = List.map (fun o -> o.(0)) outs in
  Alcotest.(check (list bool)) "carry pattern"
    [ false; false; false; true; false; false ]
    carries

let test_unroll_matches_simulation () =
  (* unrolled combinational outputs must equal cycle-accurate simulation *)
  List.iter
    (fun s ->
      let rng = Random.State.make [| 5 |] in
      let ni = Seq.num_inputs s in
      for frames = 1 to 5 do
        let u = Seq.unroll s ~frames in
        let seq_inputs =
          List.init frames (fun _ ->
              Array.init ni (fun _ -> Random.State.bool rng))
        in
        let flat =
          Array.concat (List.map Array.copy seq_inputs)
        in
        let unrolled_outs =
          Sim.Simulator.outputs u.Seq.circuit flat
        in
        let seq_outs = Seq.simulate s seq_inputs in
        List.iteri
          (fun f per_cycle ->
            Array.iteri
              (fun po v ->
                Alcotest.(check bool)
                  (Printf.sprintf "frame %d po %d" f po)
                  v
                  unrolled_outs.(u.Seq.output_of ~frame:f ~po))
              per_cycle)
          seq_outs
      done)
    [ s27 (); counter2 () ]

let test_unroll_with_init () =
  let s = counter2 () in
  let u = Seq.unroll ~init:[| true; true |] s ~frames:1 in
  (* state 11 with enable: carry fires immediately *)
  let outs = Sim.Simulator.outputs u.Seq.circuit [| true |] in
  Alcotest.(check bool) "carry out" true outs.(u.Seq.output_of ~frame:0 ~po:0)

let test_unroll_gate_map () =
  let s = counter2 () in
  let u = Seq.unroll s ~frames:3 in
  let core = C.id_of_name s.Seq.comb "c01" in
  for f = 0 to 2 do
    let g = u.Seq.gate_of ~frame:f core in
    Alcotest.(check string) "name tagged"
      (Printf.sprintf "c01@%d" f)
      u.Seq.circuit.C.names.(g)
  done;
  Alcotest.(check int) "frame 0 id = core id" core (u.Seq.gate_of ~frame:0 core)

(* ---------- sequential fault + testgen ---------- *)

let faulty_machine seed s =
  let comb = s.Seq.comb in
  let faulty_comb, errors = Sim.Injector.inject ~seed ~num_errors:1 comb in
  (Seq.with_comb s faulty_comb, errors)

let test_seq_testgen () =
  let s = s27 () in
  let faulty, _ = faulty_machine 3 s in
  let tests =
    Sim.Seq_testgen.generate ~seed:4 ~length:4 ~max_sequences:2000 ~wanted:8
      ~golden:s ~faulty
  in
  Alcotest.(check bool) "found failing sequences" true (tests <> []);
  List.iter
    (fun t ->
      Alcotest.(check bool) "faulty fails" true (Sim.Seq_testgen.fails faulty t);
      Alcotest.(check bool) "golden passes" true
        (not (Sim.Seq_testgen.fails s t)))
    tests

(* ---------- sequential diagnosis ---------- *)

let seq_workload seed =
  let s = s27 () in
  let faulty, errors = faulty_machine seed s in
  let tests =
    Sim.Seq_testgen.generate ~seed:(seed + 1) ~length:4 ~max_sequences:2000
      ~wanted:6 ~golden:s ~faulty
  in
  (s, faulty, errors, tests)

let test_seq_bsat_finds_site () =
  let found = ref 0 in
  for seed = 1 to 8 do
    let _, faulty, errors, tests = seq_workload seed in
    if tests <> [] then begin
      let r = Diagnosis.Seq_diag.diagnose_bsat ~k:1 faulty tests in
      let site = List.hd (Sim.Fault.sites errors) in
      (* completeness: the real site is a valid correction of size 1, so
         BSAT must return it (possibly among others) *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: site diagnosed" seed)
        true
        (List.exists (List.mem site) r.Diagnosis.Seq_diag.outcome.solutions);
      incr found
    end
  done;
  Alcotest.(check bool) "at least one detectable machine" true (!found > 0)

let test_seq_bsat_solutions_valid () =
  for seed = 1 to 6 do
    let _, faulty, _, tests = seq_workload seed in
    if tests <> [] then begin
      let r = Diagnosis.Seq_diag.diagnose_bsat ~k:1 faulty tests in
      List.iter
        (fun sol ->
          Alcotest.(check bool) "valid sequential correction" true
            (Diagnosis.Seq_diag.check faulty tests sol))
        r.Diagnosis.Seq_diag.outcome.solutions
    end
  done

let test_seq_bsim_contains_site () =
  for seed = 1 to 6 do
    let _, faulty, errors, tests = seq_workload seed in
    if tests <> [] then begin
      let sets = Diagnosis.Seq_diag.bsim faulty tests in
      let site = List.hd (Sim.Fault.sites errors) in
      Array.iter
        (fun ci ->
          Alcotest.(check bool) "site marked in every sequential Ci" true
            (List.mem site ci))
        sets
    end
  done

let test_seq_cov_nonempty () =
  let _, faulty, _, tests = seq_workload 1 in
  if tests <> [] then begin
    let sols = Diagnosis.Seq_diag.diagnose_cov ~k:1 faulty tests in
    Alcotest.(check bool) "covers exist" true (sols <> []);
    (* every cover hits every candidate set *)
    let sets = Diagnosis.Seq_diag.bsim faulty tests in
    List.iter
      (fun sol ->
        Alcotest.(check bool) "covers" true (Diagnosis.Cover.covers sol sets))
      sols
  end

let test_seq_mismatched_lengths_rejected () =
  let s = counter2 () in
  let mk len =
    { Sim.Seq_testgen.sequence = Array.make len [| true |]; cycle = 0;
      po_index = 0; expected = true }
  in
  Alcotest.(check bool) "rejected" true
    (match Diagnosis.Seq_diag.diagnose_bsat ~k:1 s [ mk 2; mk 3 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "sequential"
    [
      ( "machine",
        [
          Alcotest.test_case "of_parsed s27" `Quick test_of_parsed_s27;
          Alcotest.test_case "counter semantics" `Quick test_counter_counts;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "matches simulation" `Quick
            test_unroll_matches_simulation;
          Alcotest.test_case "initial state" `Quick test_unroll_with_init;
          Alcotest.test_case "gate map" `Quick test_unroll_gate_map;
        ] );
      ( "testgen",
        [ Alcotest.test_case "sequences fail faulty only" `Quick
            test_seq_testgen ] );
      ( "diagnosis",
        [
          Alcotest.test_case "BSAT finds the site" `Quick
            test_seq_bsat_finds_site;
          Alcotest.test_case "BSAT solutions valid" `Quick
            test_seq_bsat_solutions_valid;
          Alcotest.test_case "BSIM contains the site" `Quick
            test_seq_bsim_contains_site;
          Alcotest.test_case "COV covers" `Quick test_seq_cov_nonempty;
          Alcotest.test_case "length mismatch rejected" `Quick
            test_seq_mismatched_lengths_rejected;
        ] );
    ]
