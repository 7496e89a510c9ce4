let record_solver_stats obs ~prefix st =
  List.iter
    (fun (name, v) -> Obs.add obs (prefix ^ "/" ^ name) v)
    (Sat.Solver.stats_fields st)

let phase obs name ?payload f =
  match obs with
  | None -> f ()
  | Some o -> (
      Obs.begin_event o name;
      match f () with
      | v ->
          let p = match payload with None -> 0 | Some measure -> measure v in
          Obs.end_event ~payload:p o name;
          v
      | exception e ->
          Obs.end_event o name;
          raise e)

let observe obs name v = Option.iter (fun o -> Obs.observe o name v) obs

let instant obs ?payload name =
  Option.iter (fun o -> Obs.instant o ?payload name) obs
