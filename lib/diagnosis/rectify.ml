module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type witness = {
  gate : int;
  table : (bool array * bool) list;
}

exception Conflict of int * bool array
(** gate, fanin values with contradictory required outputs *)

(* Read the witness tables off the current model of a restricted
   instance whose selects are all asserted. *)
let extract_tables inst solution num_tests =
  let circ = Encode.Muxed.circuit inst in
  List.map
    (fun g ->
      let table = Hashtbl.create 8 in
      for ti = 0 to num_tests - 1 do
        let vals =
          Array.map
            (fun h -> Encode.Muxed.gate_value inst ~test:ti ~gate:h)
            circ.Circuit.fanins.(g)
        in
        let req = Encode.Muxed.correction_value inst ~test:ti ~gate:g in
        match Hashtbl.find_opt table vals with
        | Some req' when req' <> req -> raise (Conflict (g, vals))
        | Some _ -> ()
        | None -> Hashtbl.add table vals req
      done;
      { gate = g; table = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] })
    solution

(* Tests whose model currently shows the conflicting fanin values [vals]
   at gate [g]. *)
let conflicting_tests inst g vals num_tests =
  let circ = Encode.Muxed.circuit inst in
  List.filter
    (fun ti ->
      Array.map
        (fun h -> Encode.Muxed.gate_value inst ~test:ti ~gate:h)
        circ.Circuit.fanins.(g)
      = vals)
    (List.init num_tests Fun.id)

let consistent_kinds c w =
  let arity = Array.length c.Circuit.fanins.(w.gate) in
  List.filter
    (fun kind ->
      Gate.arity_ok kind arity
      && List.for_all (fun (vals, req) -> Gate.eval kind vals = req) w.table)
    Gate.all_logic

(* ---------- netlist synthesis ---------- *)

(* Append-based patch: gate := orig ⊕ (OR of minterms where the required
   value differs from the original function). *)
let apply c witnesses =
  let n = Circuit.size c in
  let extra_kinds = ref [] and extra_fanins = ref [] and extra_names = ref [] in
  let count = ref 0 in
  let append kind fanins =
    let id = n + !count in
    extra_kinds := kind :: !extra_kinds;
    extra_fanins := fanins :: !extra_fanins;
    extra_names := Printf.sprintf "rect%d" !count :: !extra_names;
    incr count;
    id
  in
  let changes = ref [] in
  List.iter
    (fun w ->
      let g = w.gate in
      match consistent_kinds c w with
      | kind :: _ ->
          if not (Gate.equal kind c.Circuit.kinds.(g)) then
            changes := (g, kind, c.Circuit.fanins.(g)) :: !changes
      | [] ->
          let orig =
            append c.Circuit.kinds.(g) (Array.copy c.Circuit.fanins.(g))
          in
          let inverted = Hashtbl.create 4 in
          let literal fanin value =
            if value then fanin
            else
              match Hashtbl.find_opt inverted fanin with
              | Some nid -> nid
              | None ->
                  let nid = append Gate.Not [| fanin |] in
                  Hashtbl.add inverted fanin nid;
                  nid
          in
          let minterms =
            List.filter_map
              (fun (vals, req) ->
                if Gate.eval c.Circuit.kinds.(g) vals = req then None
                else
                  Some
                    (append Gate.And
                       (Array.mapi
                          (fun i v -> literal c.Circuit.fanins.(g).(i) v)
                          vals)))
              w.table
          in
          (match minterms with
          | [] -> () (* table already realized by the original function *)
          | _ ->
              let patch = append Gate.Or (Array.of_list minterms) in
              changes := (g, Gate.Xor, [| orig; patch |]) :: !changes))
    witnesses;
  let kinds = Array.append c.Circuit.kinds (Array.of_list (List.rev !extra_kinds)) in
  let fanins =
    Array.append c.Circuit.fanins (Array.of_list (List.rev !extra_fanins))
  in
  let names =
    Array.append c.Circuit.names (Array.of_list (List.rev !extra_names))
  in
  List.iter
    (fun (g, k, fi) ->
      kinds.(g) <- k;
      fanins.(g) <- fi)
    !changes;
  Circuit.create ~name:(c.Circuit.name ^ "_rect") ~kinds ~fanins ~names
    ~inputs:c.Circuit.inputs ~outputs:c.Circuit.outputs

type result = {
  repaired : Netlist.Circuit.t;
  solution : int list;
  witnesses : witness list;
  kind_changes : (int * Netlist.Gate.kind) list;
}

(* Extract a *consistent* witness for one solution, re-solving with
   polarity-forcing assumptions when the model conflicts. *)
let consistent_witness c tests solution =
  let num_tests = List.length tests in
  let solver = Sat.Solver.create () in
  let inst =
    Encode.Muxed.build ~candidates:solution ~max_k:(List.length solution)
      solver c tests
  in
  let selects = List.map (Encode.Muxed.select_lit inst) solution in
  let solve extra =
    Encode.Muxed.solve_at_most ~extra:(selects @ extra) inst
      (List.length solution)
  in
  (* On a conflicting input combination, force every test currently
     showing it to one shared polarity (assumptions, both polarities
     tried) and re-solve; accumulate until the witness is functional. *)
  let rec attempt extra round =
    if round > 24 then None
    else
      match solve extra with
      | Sat.Solver.Solved Sat.Solver.Unsat | Sat.Solver.Unknown -> None
      | Sat.Solver.Solved Sat.Solver.Sat -> (
          match extract_tables inst solution num_tests with
          | tables -> Some tables
          | exception Conflict (g, vals) ->
              (* read the model before any re-solve invalidates it *)
              let tis = conflicting_tests inst g vals num_tests in
              let pins polarity =
                List.map
                  (fun ti ->
                    Sat.Lit.make
                      (Encode.Muxed.correction_var inst ~test:ti ~gate:g)
                      polarity)
                  tis
              in
              let feasible polarity =
                solve (extra @ pins polarity) = Sat.Solver.Solved Sat.Solver.Sat
              in
              if feasible true then attempt (extra @ pins true) (round + 1)
              else if feasible false then
                attempt (extra @ pins false) (round + 1)
              else None)
  in
  (inst, attempt [] 0)

let rectify ?(max_attempts = 16) ~k c tests =
  let enumeration =
    Bsat.diagnose ~max_solutions:max_attempts ~k c tests
  in
  let passes repaired =
    List.for_all (fun t -> not (Sim.Testgen.fails repaired t)) tests
  in
  let try_solution solution =
    match consistent_witness c tests solution with
    | _, None -> None
    | _, Some witnesses ->
        let repaired = apply c witnesses in
        if passes repaired then
          Some
            {
              repaired;
              solution;
              witnesses;
              kind_changes =
                List.filter_map
                  (fun w ->
                    match consistent_kinds c w with
                    | kind :: _ when not (Gate.equal kind c.Circuit.kinds.(w.gate))
                      ->
                        Some (w.gate, kind)
                    | _ -> None)
                  witnesses;
            }
        else None
  in
  List.find_map try_solution enumeration.Bsat.solutions
