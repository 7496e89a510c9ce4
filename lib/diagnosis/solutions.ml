let compare_solution a b =
  compare (List.length a, a) (List.length b, b)

let canonical sols =
  List.sort_uniq compare_solution (List.map (List.sort Int.compare) sols)

let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then subset a' b'
      else if x > y then subset a b'
      else false

let minimal_only sols =
  List.filter
    (fun s -> not (List.exists (fun t -> t <> s && subset t s) sols))
    sols
