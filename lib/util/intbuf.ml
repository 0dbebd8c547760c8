type t = { mutable s : int array; mutable len : int }

let create () = { s = Array.make 64 0; len = 0 }

let push b x =
  if b.len = Array.length b.s then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.s 0 a 0 b.len;
    b.s <- a
  end;
  b.s.(b.len) <- x;
  b.len <- b.len + 1

(* heapsort: top-level and closure-free, so a call allocates nothing *)
let rec sift (a : int array) lo i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
    let x = a.(lo + i) in
    if a.(lo + c) > x then begin
      a.(lo + i) <- a.(lo + c);
      a.(lo + c) <- x;
      sift a lo c len
    end
  end

let sort_slice a lo hi =
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift a lo i n
  done;
  for len = n - 1 downto 1 do
    let x = a.(lo) in
    a.(lo) <- a.(lo + len);
    a.(lo + len) <- x;
    sift a lo 0 len
  done
