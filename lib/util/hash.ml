(* The state is kept as two 32-bit halves in native ints, so the loop
   neither boxes an Int64 per byte nor needs a 64-bit multiply. The FNV
   prime is 2^40 + 0x1b3, hence h * prime = (h lsl 40) + h * 0x1b3 mod
   2^64: the low half takes lo * 0x1b3, the high half takes hi * 0x1b3,
   the carry out of the low product and lo shifted past bit 32 by 40. *)
let fnv1a64 s =
  let hi = ref 0xcbf29ce4 and lo = ref 0x84222325 in
  for i = 0 to String.length s - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let m = l * 0x1b3 in
    lo := m land 0xffffffff;
    hi := ((!hi * 0x1b3) + (m lsr 32) + (l lsl 8)) land 0xffffffff
  done;
  Int64.logor (Int64.shift_left (Int64.of_int !hi) 32) (Int64.of_int !lo)

let digits = "0123456789abcdef"

let add_hex64 b x =
  let hi = Int64.to_int (Int64.shift_right_logical x 32)
  and lo = Int64.to_int x land 0xffffffff in
  for i = 7 downto 0 do
    Buffer.add_char b (String.unsafe_get digits ((hi lsr (4 * i)) land 15))
  done;
  for i = 7 downto 0 do
    Buffer.add_char b (String.unsafe_get digits ((lo lsr (4 * i)) land 15))
  done

let hex64 x =
  let b = Buffer.create 16 in
  add_hex64 b x;
  Buffer.contents b
