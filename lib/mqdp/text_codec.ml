let rec add_nat b n =
  if n >= 10 then add_nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n >= 0 then add_nat b n else Buffer.add_string b (string_of_int n)
let add_ints b ns =
  List.iter
    (fun n ->
      Buffer.add_char b ' ';
      add_int b n)
    ns

let add_float b f = Util.Hash.add_hex64 b (Int64.bits_of_float f)

(* Word by word over the bitset, as Window_index.push does: no closure
   and no label list per post. *)
let add_labels b ls =
  let first = ref true in
  for wi = 0 to Label_set.word_count ls - 1 do
    let word = Label_set.word ls wi in
    for bit = 0 to Label_set.bits_per_word - 1 do
      if word land (1 lsl bit) <> 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        add_nat b ((wi * Label_set.bits_per_word) + bit)
      end
    done
  done;
  if !first then Buffer.add_char b '-'

let add_post b p =
  add_int b p.Post.id;
  Buffer.add_char b ' ';
  add_float b p.Post.value;
  Buffer.add_char b ' ';
  add_labels b p.Post.labels

let add_post_line b p =
  Buffer.add_string b "p ";
  add_post b p;
  Buffer.add_char b '\n'
