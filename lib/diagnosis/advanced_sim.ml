type result = {
  bsim : Bsim.result;
  solutions : int list list;
  sim_time : float;
  search_time : float;
  truncated : bool;
}

let diagnose ?tie_break ?(max_solutions = max_int) ?budget ~k c tests =
  let exhausted () =
    Option.fold ~none:false ~some:Sat.Budget.exhausted budget
  in
  let t0 = Obs.Clock.wall () in
  let bsim = Bsim.diagnose ?tie_break c tests in
  let sim_time = Obs.Clock.wall () -. t0 in
  let tests_arr = Array.of_list tests in
  let sets = bsim.Bsim.candidate_sets in
  let marks = bsim.Bsim.marks in
  let by_marks gs =
    List.sort (fun a b -> compare (marks.(b), a) (marks.(a), b)) gs
  in
  let start = Obs.Clock.wall () in
  let visited = Hashtbl.create 256 in
  let solutions = ref [] in
  let truncated = ref false in
  let exception Budget in
  let record sol =
    (* shrink to an essential subset before recording (Definition 4) *)
    let sol =
      Sat.Shrink.deletion
        ~test:(fun s ->
          if Validity.check_sim c tests s then Sat.Shrink.Holds
          else Sat.Shrink.Fails)
        sol
      |> Result.get_ok
    in
    if not (List.exists (fun s -> Solutions.subset s sol) !solutions) then
      solutions := sol :: !solutions
  in
  (* indices of tests not rectifiable by the candidate set *)
  let unrectified chosen =
    List.filter
      (fun i ->
        not
          (Validity.check_sim c [ tests_arr.(i) ] chosen))
      (List.init (Array.length tests_arr) Fun.id)
  in
  let rec go chosen =
    if List.length !solutions >= max_solutions || exhausted () then begin
      truncated := true;
      raise Budget
    end;
    let key = List.sort Int.compare chosen in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      if List.exists (fun s -> Solutions.subset s key) !solutions then ()
      else
        match unrectified chosen with
        | [] -> if chosen <> [] then record key
        | failing when List.length chosen < k ->
            let pool =
              List.concat_map (fun i -> sets.(i)) failing
              |> List.sort_uniq Int.compare
              |> List.filter (fun g -> not (List.mem g chosen))
              |> by_marks
            in
            List.iter (fun g -> go (g :: chosen)) pool
        | _ -> ()
    end
  in
  (try go [] with Budget -> ());
  (* a larger solution may have been recorded before a subset was found *)
  {
    bsim;
    solutions = List.sort_uniq compare (Solutions.minimal_only !solutions);
    sim_time;
    search_time = Obs.Clock.wall () -. start;
    truncated = !truncated;
  }
