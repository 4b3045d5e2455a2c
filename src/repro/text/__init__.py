"""String similarity, tokenisation, stemming and thesaurus substrate."""
