type 'a verdict = Holds | Holds_within of ('a -> bool) | Fails | Unknown

let deletion ~test xs =
  let rec go kept_rev = function
    | [] -> Ok (List.rev kept_rev)
    | x :: rest -> (
        match test (List.rev_append kept_rev rest) with
        | Holds -> go kept_rev rest
        | Holds_within mem ->
            go (List.filter mem kept_rev) (List.filter mem rest)
        | Fails -> go (x :: kept_rev) rest
        | Unknown -> Error (List.rev_append kept_rev (x :: rest)))
  in
  go [] xs
