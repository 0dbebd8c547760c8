(* The PTA's most hostile copy shape: one ring of [n] locals in main, each
   with its own allocation, each copied into the next. Every object must
   travel the whole ring, so the solve commits n² points-to facts; the
   solver does not collapse copy cycles, and only a step budget bounds
   the work. *)

let copy_ring_src n =
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "main M;\nclass D { }\nclass M {\n";
  Buffer.add_string b "  static method main() {\n    local x0";
  for i = 1 to n - 1 do
    Printf.bprintf b ", x%d" i
  done;
  Buffer.add_string b ";\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "    x%d = new D();\n" i
  done;
  for i = 0 to n - 1 do
    Printf.bprintf b "    x%d = x%d;\n" ((i + 1) mod n) i
  done;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b
