let bfs neighbours n roots =
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  List.iter
    (fun g ->
      if dist.(g) = max_int then begin
        dist.(g) <- 0;
        Queue.add g queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    neighbours g (fun h ->
        if dist.(h) = max_int then begin
          dist.(h) <- dist.(g) + 1;
          Queue.add h queue
        end)
  done;
  dist

let cone step (c : Circuit.t) roots =
  let n = Circuit.size c in
  let dist = bfs (fun g visit -> Array.iter visit (step g)) n roots in
  Array.map (fun d -> d < max_int) dist

let fanin_cone c roots = cone (fun g -> c.Circuit.fanins.(g)) c roots
let fanout_cone c roots = cone (fun g -> c.Circuit.fanouts.(g)) c roots

let distance_from (c : Circuit.t) roots =
  let neighbours g visit =
    Array.iter visit c.fanins.(g);
    Array.iter visit c.fanouts.(g)
  in
  bfs neighbours (Circuit.size c) roots
