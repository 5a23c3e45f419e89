"""Files in formats of earlier releases, which the current code must refuse
rather than misread."""

# a search checkpoint in the text format, as `quadseq search --kind nn
# --order 4 --mode count --limit 25 --checkpoint FILE` wrote it
TEXT_CHECKPOINT = """\
# quadseq search checkpoint
kind nn
order 4
mode count
representatives 0
cases all
case-pos 0
nodes 35
found 80
prune case 0
prune sum_of_squares 1
frame lex-next 10
"""
