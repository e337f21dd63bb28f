let time f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  let t1 = Monotonic_clock.now () in
  (v, Int64.to_float (Int64.sub t1 t0) *. 1e-9)

let repeat_median ~runs f =
  if runs <= 0 then invalid_arg "Timer.repeat_median: runs must be positive";
  let times = Array.make runs 0.0 in
  let result = ref None in
  for i = 0 to runs - 1 do
    let v, s = time f in
    times.(i) <- s;
    result := Some v
  done;
  Array.sort compare times;
  let median =
    (* For even [runs] the median is the mean of the two middle samples;
       taking only the upper one biases benchmark medians upward. *)
    if runs mod 2 = 1 then times.(runs / 2)
    else (times.((runs / 2) - 1) +. times.(runs / 2)) /. 2.0
  in
  match !result with
  | Some v -> (v, median)
  | None -> failwith "Timer.repeat_median: no run recorded despite positive run count"
