let workers ~jobs n = max 1 (min jobs n)

let init ~jobs n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (f i);
      work ()
    end
  in
  let helpers =
    Array.init (workers ~jobs n - 1) (fun _ -> Domain.spawn work)
  in
  work ();
  Array.iter Domain.join helpers;
  Array.map Option.get results
