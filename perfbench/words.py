"""Word lists for the synthetic caption corpora.

Every word was chosen from tagforge's packaged POS lexicon so that the
parser reads it back unchanged: a noun and its "+s" plural parse to the
noun as an object tag, and an adjective before a noun to an attribute tag.
The lists are fixed data, so the generated inputs do not depend on
the program under test.
"""

NOUNS = """
    air airplane airport alley animal apartment apple arm autumn baby
    backpack bag bakery ball balloon banana banner barn baseball basket
    basketball bat bathroom beach beak bear beard bed bedroom bee beer bell
    belt bench berry bicycle bike billboard bird blanket board boat bone
    book bookshelf boot bottle bouquet bowl box boy bracelet branch bread
    breakfast brick bride bridge broccoli brush bucket building burger bush
    butterfly button cabinet cafe cake camera canal candle canoe cap captain
    car card carpet carrot cart castle cat ceiling chair cheese chef chicken
    child chimney chocolate church city classroom cliff clock cloth clothing
    cloud coast coat coffee collar computer cookie corn corner cottage couch
    counter couple court cow crab crane crate cream crosswalk crowd crown
    cup curb curtain cyclist daisy deck deer delivery desert desk dessert
    dinner dish dock doctor dog doll dolphin donut door drawing driver duck
    duckling eagle ear egg elephant engine evening eye face family fan farm
    farmer feather fence field finger fire fireplace fisherman flag flame
    floor flower fog food foot forest fork fountain fox friend frog front
    fruit fur garage garden gate giraffe girl glove goat goose grape grocery
    groom ground group guitar hair half hallway hand handbag handle harbor
    hat hay head helicopter helmet hero highway hill home horn horse hose
    hospital hotel house hydrant ice insect intersection island jacket jar
    jean jeep juice jungle kayak kettle key keyboard king kitchen kite
    kitten knee knife ladder lake lamp lantern laptop lawn leaf leash leg
    lemon lettuce library life light lighthouse lightning lily lion lizard
    loaf log luggage lunch man mane map market meadow meal meat microphone
    microwave milk mirror mitten monkey moon morning mother motorcycle
    mountain mouse mouth mug museum mushroom napkin neck necklace nest net
    night noodle nose notebook ocean office officer oil onion orchard
    ostrich oven owl paddleboard painting palm pan panda pant paper parade
    park parrot pasta pastry path patio paw pea peach pear pedestrian pen
    pencil penguin pepper person pet phone photo photograph piano picnic
    picture pie pier pig pigeon pillow pilot pine pizza plant plate platform
    player playground plaza pocket pole police pond pony porch port poster
    pot potato puddle puppy purse rabbit raccoon rack railing railway rain
    rainbow raincoat ramp restaurant ribbon rice rider ring river road rock
    roof rooftop room rooster rope row rug runway saddle salad sand
    sandcastle sandwich sauce scarf scene scooter screen sculpture sea
    seagull seal seat shadow shark shed sheep shelf ship shirt shoe shop
    shore shoulder shovel shower sidewalk sign sill sink skateboard skier
    skirt sky skyline skyscraper sled slope smoke snake sneaker snow
    snowboard soccer sock sofa soldier soup spectator spider spoon spring
    squirrel stadium stage stair staircase stall star station statue steam
    steeple stick stone stool stop store stove strawberry stream street
    string stripe stroller student suit suitcase summer sun sunflower
    sunlight sunset surfboard surfer swan sweater swing table tablet tail
    taxi teacher team teddy telephone television tent terrace thing tie
    tiger tile toast toddler toe toilet tomato tongue tool toothbrush top
    towel tower town toy track tractor traffic trail train tray tree truck
    trunk tub tulip tunnel turtle tusk umbrella uniform valley van vase
    vegetable vehicle vest video village vine violin waiter walkway wall
    wallet water waterfall wave wedding whale wheel wheelchair windmill
    window wing winter woman wood wool worker yard yarn zebra zoo
""".split()

ADJECTIVES = """
    ancient angry beautiful big black blue bright broken brown busy calm
    checkered cheerful clean clear cloudy cold colored colorful cool crowded
    curly cute damp dark deep delicious dirty dry dusty elderly empty extra
    fancy fast fierce fluffy foggy fresh full furry fuzzy gentle giant
    golden gray green grey happy hard heavy hot huge hungry icy large lazy
    leather little long loud low metal misty modern muddy narrow new noisy
    old open orange parked pink plain plastic pretty purple quick quiet
    rainy raw red ripe rocky rough round rusty sad salty sandy sharp shiny
    short silver sleepy sliced slow small smooth snowy soft sour spicy
    spotted square steep stormy striped strong sunny sweet tall tasty thick
    thin tiny tired warm wet white wide wild windy wooden yellow young
""".split()
